"""Digest of the command-line front end, for before/after comparisons.

Runs a fixed list of calls through ``nestquad.cli.main`` in a temporary
directory and prints one line per call: its arguments, its exit code and
a sha256 of its stdout, with ``time=`` values masked.  Under each call it
prints the lines of its stderr, since an exit code alone does not tell
one refusal or failed search from another, then one line per file the
call wrote or changed: the file's path, a sha256 of its bytes with
``provenance.timestamp`` and ``provenance.iterations`` masked, and, for a
record, its provenance iteration count in clear text.  The last calls
read corrupted copies of files the earlier ones wrote.  Two trees behave
the same at the CLI exactly when their outputs are equal:

    PYTHONPATH=src python tests/cli_digest.py > after.txt

The script runs the tree it sits in; to digest an older tree, copy it and
``script_support.py`` into that tree's ``tests`` and run it there.

BLAS is pinned to one thread (``script_support``).  The full run takes a
few seconds.  pytest does not collect this file.
"""

# first: pins BLAS before numpy loads and puts this tree's src on the path
from script_support import sha as _sha

import contextlib
import io
import json
import os
import re
import shutil
import tempfile

from nestquad import cli

GRID_FUNCTIONS = [
    ("constant", None),
    ("monomial", "2,0,4"),
    ("product-exponential", "0.3,0.2,0.1"),
    ("genz-oscillatory", "0.1,0.3,0.2,0.1"),
]

CALLS = [
    "generate --family legendre --n1 3 --out pair.json",
    "generate --family legendre --n1 1,2 --out batch",
    "generate --family jacobi --params 0,0.3 --n1 2 --log gen.csv",
    "generate --family legendre --n1 3 --alpha2-init 12 --out pair12.json",
    "generate --family legendre --n1 1,3 --eps 1e-16 --log mixed.csv",
    "gauss --family legendre --n 1 --out g1.json",
    "gauss --family legendre --n 3 --out g3.json",
    "extend --in g1.json --steps 3 --prune --out ext",
    "verify --in pair.json",
    "verify --in g3.json",
    "verify --in g3.json --alpha 7",
    "verify --in g3.json --circle-theorem",
    "verify --in g3-perturbed.json",
    "sparse-grid --family legendre --d 3 --k 4 --autogen --catalog cat "
    "--out grid",
    "sparse-grid --family legendre --d 3 --k 4 --catalog cat",
    "sparse-grid --family legendre --d 4 --k 3 --schedule gauss "
    "--out gauss-grid",
    *[f"integrate --grid grid.json --function {name}"
      + (f" --params {params}" if params else "")
      for name, params in GRID_FUNCTIONS],
    "integrate --grid grid.json --function product-exponential "
    "--params 1000,0,0",
    "integrate --rule pair.json --function product-exponential "
    "--params 0.5",
    "integrate --rule pair.json --function genz-oscillatory "
    "--params 0.1,0.3",
    "export --in pair.json --part coarse --out coarse.csv",
]


def _edit_json(source, target, edit):
    """A copy of a JSON file with ``edit`` applied to its document."""
    with open(source, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _perturb_weight(doc):
    doc["data"]["weights"][0] += 1e-6


def _tamper_catalog(source, target):
    """A copy of a catalog whose 7-node rule has one node the 3-node rule
    lacks moved by 1e-3: it still embeds that rule, but its certificate no
    longer holds."""
    shutil.copytree(source, target)
    inner = os.path.join(source, "ext-legendre-n3.json")
    with open(inner, encoding="utf-8") as fh:
        kept = json.load(fh)["data"]["nodes"]

    def move(doc):
        nodes = doc["data"]["nodes"]
        nodes[nodes.index([x for x in nodes if x not in kept][0])] += 1e-3

    path = os.path.join(target, "ext-legendre-n7.json")
    _edit_json(path, path, move)


def _nan_weight(doc):
    doc["weights"][0] = float("nan")


# (set-up, call) pairs on corrupted files, run after CALLS
CORRUPT_CALLS = [
    (lambda: _tamper_catalog("cat", "cat-tampered"),
     "sparse-grid --family legendre --d 2 --k 4 --catalog cat-tampered"),
    (lambda: _edit_json("grid.json", "grid-nan.json", _nan_weight),
     "integrate --grid grid-nan.json --function constant"),
    (lambda: _edit_json("g3.json", "g3-no-alpha2.json",
                        lambda doc: doc["data"].pop("alpha2")),
     "verify --in g3-no-alpha2.json"),
    (None, "export --in g3-no-alpha2.json --out no-alpha2.csv"),
]


def _snapshot() -> dict:
    files = {}
    for root, _, names in os.walk("."):
        for name in names:
            path = os.path.relpath(os.path.join(root, name))
            with open(path, "rb") as fh:
                files[path] = fh.read()
    return files


def _file_line(path, data: bytes) -> str:
    """sha256 with the timestamp and iteration count masked; the count
    follows in clear text."""
    text = data.decode("utf-8")
    masked = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "*"', text)
    masked = re.sub(r'"iterations": \d+', '"iterations": *', masked)
    line = f"  {path} sha {_sha(masked.encode('utf-8'))}"
    if path.endswith(".json") and '"provenance"' in text:
        iterations = json.loads(text)["provenance"]["iterations"]
        line += f" iterations {iterations}"
    return line


def _run(call: str):
    before = _snapshot()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(call.split())
    stdout = re.sub(r"time=\S+", "time=*", out.getvalue())
    yield f"{call}: exit {code} stdout {_sha(stdout.encode('utf-8'))}"
    for line in err.getvalue().splitlines():
        yield f"  {line}"
    for path, data in sorted(_snapshot().items()):
        if before.get(path) != data:
            yield _file_line(path, data)


def main() -> None:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for call in CALLS:
                if call == "verify --in g3-perturbed.json":
                    _edit_json("g3.json", "g3-perturbed.json",
                               _perturb_weight)
                for line in _run(call):
                    print(line, flush=True)
            for setup, call in CORRUPT_CALLS:
                if setup is not None:
                    setup()
                for line in _run(call):
                    print(line, flush=True)
        finally:
            os.chdir(start)


if __name__ == "__main__":
    main()
