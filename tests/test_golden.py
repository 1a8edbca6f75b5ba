"""Seeded outputs stay byte-identical to the fixtures in tests/golden/.

A difference means a change moved a number the experiments or the CLI
report. If the move is intended, rewrite the fixtures with
`PYTHONPATH=src python tests/golden/regenerate.py` and name the changed
files in CHANGES.md with the reason.
"""

from golden.regenerate import AC8_CSV, AC9_CSV, GOLDEN, write_outputs


def test_outputs_match_golden(tmp_path):
    names = write_outputs(tmp_path)
    # the AC8 and AC9 CSVs are compared by test_ac08_ne_vs_tdma_crossover
    # and test_ac09_iwfa_convergence_trend, which already run their sweeps
    assert sorted(names + [AC8_CSV, AC9_CSV]) == sorted(
        p.name for p in GOLDEN.iterdir() if p.suffix in (".csv", ".json"))
    changed = [name for name in names
               if (tmp_path / name).read_bytes()
               != (GOLDEN / name).read_bytes()]
    assert not changed, f"outputs differ from tests/golden/: {changed}"
