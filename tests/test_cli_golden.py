"""Golden CLI corpus: stdout, stderr and exit code of requests covering
every route of `spectrum`, and the other commands, compared byte for byte
with `cli_golden.json`.

Requests marked numeric print eigenvalues from the numeric solver.  Those
values, `max_deviation` and `error_bound` can differ in the last digits
across BLAS builds, so they are blurred to `~` on both sides before the
comparison; everything else, multiplicities and exact strings included,
must match exactly.

Regenerate the data file (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from distspec.cli import main

DATA = Path(__file__).with_name("cli_golden.json")

# (argv, numeric): numeric marks output carrying solver values
REQUESTS = [
    # closed form inside the domain, early return
    ("spectrum complete 4", False),
    ("spectrum petersen --format text", False),
    ("spectrum icosahedron --format text", False),
    ("spectrum dodecahedron", False),
    ("spectrum hamming 12 12", False),
    ("spectrum cycle 7 --format text", False),
    # --numeric, and --verify passing and failing
    ("spectrum complete 5 --numeric", True),
    ("spectrum cycle 6 --numeric --format text", True),
    ("spectrum doob 1 1 --verify", True),
    ("spectrum halved-cube 5 --verify --format text", True),
    ("spectrum cycle 400 --verify --format text", True),
    # the closed form's whole domain: the halved 3-cube is K_4
    ("spectrum halved-cube 3", False),
    ("spectrum halved-cube 3 --format text", False),
    ("spectrum halved-cube 3 --verify", True),
    # outside the domain: the generator's message
    ("spectrum odd 1", False),
    ("spectrum johnson 4 7 --verify", False),
    ("spectrum kneser 4 2", False),
    # no closed form
    ("spectrum path 4", True),
    ("spectrum lollipop 3 2 --format text", True),
    ("spectrum path 5 --verify", False),
    # caps, the float range, arity and the parser
    ("spectrum path 5000", False),
    ("spectrum hamming 12 12 --verify", False),
    ("spectrum cycle 2000001", False),
    ("spectrum cycle 10000000 --verify", False),
    ("spectrum hypercube 1100 --format text", False),
    ("spectrum hamming 3", False),
    ("spectrum petersen 3", False),
    ("spectrum petersen --numeric --verify", False),
    # the other commands
    ("det barbell 3 4 2", False),
    ("det path 4", False),
    ("det halved-cube 12", False),
    ("srg 16 6 2 2", False),
    ("srg 9 4 1 2", False),
    ("srg 5 7 0 1", False),
    ("zf-bound hypercube 3", False),
    ("zf-bound hypercube 10", False),
    ("matrix cycle 5", False),
    ("matrix hamming 12 12", False),
    ("verify-trees --max-order 6", False),
    ("verify lemma-identities --max 4 --max-b 2 --format csv", False),
    ("verify lollipop --k 2..3 --l 0..1 --format json", False),
    ("verify barbell --k 2 --m 2..3 --l 0", False),
    ("verify cycle --n 3..5", True),
    ("verify hamming --d 2 --n 2..3 --format csv", True),
    ("verify halved-cube --d 4..5 --format json", True),
    ("verify halved-cube --d 3..4", True),
    ("verify halved-cube --d 2..5", True),
    ("verify path", False),
    ("verify cycle --d 3..4", False),
]

BLURRED_KEYS = ("max_deviation", "error_bound")


def _blur_doc(doc, numeric: bool = False):
    if isinstance(doc, list):
        return [_blur_doc(x, numeric) for x in doc]
    if not isinstance(doc, dict):
        return doc
    return {k: "~" if k in BLURRED_KEYS or (numeric and k == "value")
            else _blur_doc(v, numeric or k == "numeric")
            for k, v in doc.items()}


def blur(out: str) -> str:
    """out with the solver's values replaced by `~`."""
    try:
        doc = json.loads(out)
    except ValueError:
        pass
    else:
        return json.dumps(_blur_doc(doc), indent=2, sort_keys=True) + "\n"
    head, _, rest = out.partition("\n")
    if head.endswith(",".join(BLURRED_KEYS) + "\r"):  # csv rows
        return head + "\n" + re.sub(r"(?m),[^,\n]*,[^,\n]*\r$", ",~,~\r", rest)
    if "  match=" not in out:  # the listed spectrum is the numeric one
        out = re.sub(r"(?m)^  \S+( \^ \d+)$", r"  ~\1", out)
    return re.sub(r"(max_deviation|error_bound)=[^ \n]+", r"\1=~", out)


def answer(argv: str, numeric: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv.split())
    stdout = blur(out.getvalue()) if numeric else out.getvalue()
    return {"argv": argv, "numeric": numeric, "code": code,
            "stdout": stdout, "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def recorded() -> dict[str, dict]:
    return {r["argv"]: r for r in json.loads(DATA.read_text())}


def test_corpus_holds_every_request(recorded):
    assert [(r["argv"], r["numeric"]) for r in recorded.values()] == REQUESTS


@pytest.mark.parametrize("argv, numeric", REQUESTS)
def test_output_is_unchanged(recorded, argv, numeric):
    assert answer(argv, numeric) == recorded[argv]


if __name__ == "__main__":
    records = [answer(argv, numeric) for argv, numeric in REQUESTS]
    DATA.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {DATA}", file=sys.stderr)
