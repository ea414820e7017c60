"""The mutation table: small deliberate faults, each with the tests that
must catch it, and a runner that checks they do.

    python tests/mutants.py [mutant name ...]

The runner copies src/, tests/ and pyproject.toml to a temporary
directory. There it first runs every named test of the chosen mutants
(all by default) on the unmutated code, which must pass. Then, one mutant
at a time, it replaces the mutant's old text with its new text, runs only
that mutant's tests and restores the file. A mutant is caught when every
test it names fails (for a parametrized test: some case of it). The
runner prints one line per mutant and exits 0 when every mutant is
caught, 1 when one survives or the unmutated tests fail.

tests/test_mutants.py checks in tier-1, in milliseconds, that every old
text occurs exactly once in its file and that every named test exists,
so a refactor that moves the code fails there at once instead of leaving
a mutant that no longer applies.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # the exact text replaced; it occurs once in path
    new: str
    tests: tuple  # pytest node ids; each must fail under the mutant


_FIT = "tests/test_compensator.py::TestFitPrefixes::"

MUTANTS = (
    Mutant("rank_guard_removed", "src/pncomp/compensator.py",
           "weak = diag.min(axis=-1) <= DEFAULT_RCOND * diag.max(axis=-1)",
           "weak = diag.min(axis=-1) < 0",
           (_FIT + "test_near_rank_deficient_prefix_is_pinv",
            _FIT + "test_single_symbol_call")),
    Mutant("strided_fallback_rhs", "src/pncomp/compensator.py",
           "solve_ls(a[..., :d], np.ascontiguousarray(s_rows))",
           "solve_ls(a[..., :d], s_rows)",
           (_FIT + "test_fewer_rows_than_d_is_pinv",
            _FIT + "test_one_symbol_fallbacks_are_pinv",
            _FIT + "test_single_symbol_call")),
    Mutant("raw_qr_mask_dropped", "src/pncomp/compensator.py",
           "    np.copyto(r, 0, where=_strict_lower(*r.shape[-2:]))",
           "    pass",
           (_FIT + "test_matches_per_symbol_qr",
            _FIT + "test_single_symbol_call",
            "tests/test_compensator.py::TestBlockFit::"
            "test_block_matches_per_symbol")),
    Mutant("fold_sums_scores_first", "src/pncomp/harness.py",
           "np.add.reduce(np.concatenate((total[:, None], scores), axis=1),"
           " axis=1,\n                  out=total)",
           "np.add(total, scores.sum(axis=1), out=total)",
           ("tests/test_harness.py::TestScoreFold::"
            "test_fold_is_the_sequential_sum",)),
    Mutant("evm_floor_dropped", "src/pncomp/ofdm.py",
           "return np.maximum(10.0 * np.log10(np.divide(num, den)), "
           "EVM_FLOOR_DB)",
           "return 10.0 * np.log10(np.divide(num, den))",
           ("tests/test_ofdm.py::TestRatioToDb::"
            "test_zero_error_is_the_floor",
            "tests/test_ofdm.py::TestRatioToDb::"
            "test_ratio_below_1e_30_is_the_floor",
            "tests/test_harness.py::TestCsv::"
            "test_every_row_holds_python_floats")),
    Mutant("csv_lf_line_ends", "src/pncomp/harness.py",
           '.get(c, "%s") for c in CSV_COLUMNS) + "\\r\\n"',
           '.get(c, "%s") for c in CSV_COLUMNS) + "\\n"',
           ("tests/test_harness.py::TestCsv::"
            "test_bytes_match_csv_writer_on_edge_rows",)),
)


def pytest(cwd: Path, ids) -> tuple[int, set[str]]:
    """Run pytest on the node ids in cwd; (exit code, failed node ids)."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-rfE", *ids], cwd=cwd, capture_output=True, text=True)
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M))
    return proc.returncode, failed


def caught(mutant: Mutant, failed: set[str]) -> list[str]:
    """The named tests of mutant that failed (a parametrized one counts
    when some case of it failed)."""
    return [t for t in mutant.tests
            if any(f == t or f.startswith(t + "[") for f in failed)]


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        print(f"unknown mutant in {names}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="pncomp-mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work)
        ids = sorted({t for m in chosen for t in m.tests})
        code, failed = pytest(work, ids)
        if code != 0:
            print(f"unmutated: named tests fail: {sorted(failed)}")
            return 1
        survivors = []
        for m in chosen:
            path = work / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: old text occurs {text.count(m.old)} times")
                survivors.append(m.name)
                continue
            path.write_text(text.replace(m.old, m.new))
            try:
                _, failed = pytest(work, m.tests)
            finally:
                path.write_text(text)
            hit = caught(m, failed)
            missed = [t for t in m.tests if t not in hit]
            print(f"{m.name}: {'caught' if not missed else 'SURVIVED'} "
                  f"({len(hit)} of {len(m.tests)} named tests failed)"
                  + "".join(f"\n  not failed: {t}" for t in missed))
            if missed:
                survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants caught "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
