"""Golden outputs: five small CLI runs, one per scenario, must write the
same bytes as the committed fixtures.

Each case is a config `tests/fixtures/golden/<name>.cfg`, run at seed 1;
its `summary.json` and `overlaps.csv` are kept in
`tests/fixtures/golden/<name>/`, and its `trajectories.csv` (up to a few
MB) by its SHA-256 in `<name>/trajectories.csv.sha256`.  A case without
that file (optical-sg) must write no `trajectories.csv`.  A change that is meant to move no output
(a refactor, a simplification) keeps these tests green unedited.  A change
that moves outputs on purpose regenerates the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and says in its change notes which files moved and why.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from bohmctx.cli import main

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
CASES = {
    "beam_splitter": "beam-splitter",
    "stern_gerlach_1d": "stern-gerlach",
    "stern_gerlach_gordon": "stern-gerlach",
    "optical_sg": "optical-sg",
    "ancilla": "ancilla",
}
FILES = ("summary.json", "overlaps.csv")
DIGEST = "trajectories.csv.sha256"


def trajectories_digest(out_dir: Path) -> str | None:
    path = out_dir / "trajectories.csv"
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest() + "\n"


def run_case(name: str, out_dir: Path) -> None:
    code = main([CASES[name], "--config", str(GOLDEN / f"{name}.cfg"),
                 "--seed", "1", "--out", str(out_dir)])
    assert code == 0


@pytest.mark.parametrize("name", list(CASES))
def test_cli_outputs_match_golden(tmp_path, name):
    run_case(name, tmp_path)
    for fname in FILES:
        assert (tmp_path / fname).read_bytes() \
            == (GOLDEN / name / fname).read_bytes(), f"{name}/{fname} moved"
    pinned = GOLDEN / name / DIGEST
    expected = pinned.read_text() if pinned.exists() else None
    assert trajectories_digest(tmp_path) == expected, \
        f"{name}/trajectories.csv moved"


if __name__ == "__main__":
    import tempfile
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            run_case(case, Path(tmp))
            (GOLDEN / case).mkdir(exist_ok=True)
            for fname in FILES:
                (GOLDEN / case / fname).write_bytes(
                    (Path(tmp) / fname).read_bytes())
            digest = trajectories_digest(Path(tmp))
            if digest is not None:
                (GOLDEN / case / DIGEST).write_text(digest)
        print(f"wrote {GOLDEN / case}", file=sys.stderr)
