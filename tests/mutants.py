"""Mutation harness: every oracle proves that it bites.

Each mutant in MUTANTS names a module of src/braidmono, an exact piece of
its source (it must occur exactly once), the replacement, and the tests
that must fail.  For each one the harness copies src/, tests/ and
pyproject.toml to a temporary directory, applies the mutant there, and
runs pytest -x on the named tests.  A mutant is killed when pytest reports
a failed test.  The harness exits 1 if a mutant survives, if its source
text no longer occurs exactly once, or if the named tests fail before any
mutant is applied; so a refactor that moves a mutated line must update
the table.

Stdlib only (pytest runs as a subprocess); pytest does not collect this
file, whose name is outside test_*.py.  From the repository root:

    python tests/mutants.py          # every mutant
    python tests/mutants.py NAME...  # the named mutants
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, module, source text, replacement, tests that must fail)
MUTANTS = [
    ("pl-pass: exponent update after the var swap", "cocycles.py",
     "        col[var[i - 1]] -= x\n"
     "        exps[r], exps[c] = exps[c], col\n"
     "        rows[r], rows[c] = rows[c], rows[r]  # the var swap, when var is rows\n",
     "        exps[r], exps[c] = exps[c], col\n"
     "        rows[r], rows[c] = rows[c], rows[r]  # the var swap, when var is rows\n"
     "        col[var[i - 1]] -= x\n",
     ["tests/test_reduce_oracle.py::test_pl_fold_matches_letter_blocks"]),
    ("pl-pass: purity read dropped", "cocycles.py",
     "if needs_pure and rows != list(range(b.m)):",
     "if False:",
     ["tests/test_reduce_oracle.py::test_error_messages"]),
    ("pl-pass: epsilon refusal dropped", "cocycles.py",
     'if rep and letter[0] == "e":',
     "if False:",
     ["tests/test_reduce_oracle.py::test_error_messages"]),
    ("pl-pass: one exponent list for every column", "cocycles.py",
     "exps = [[0] * (m if multivariate else 1) for _ in range(m)]",
     "exps = [[0] * (m if multivariate else 1)] * m",
     ["tests/test_reduce_oracle.py::test_pl_fold_matches_letter_blocks"]),
    ("trusted assembly: every column reads one exponent list", "cocycles.py",
     "{tuple(exps[j]): 1}",
     "{tuple(exps[0]): 1}",
     ["tests/test_reduce_oracle.py::test_single_letters_and_empty_word"]),
    ("pl_letter: epsilon letter on the next strand", "words.py",
     "return k - 1, k - 1, k, e",
     "return k - 1, k - 1, k + 1, e",
     ["tests/test_reduce_oracle.py::test_pl_fold_matches_letter_blocks"]),
    ("rho_coeff: sign flipped for n odd", "monodromy.py",
     "return self.eps * (e if self.n_mod_4 & 1 else e % 2)",
     "return self.eps * (-e if self.n_mod_4 & 1 else e % 2)",
     ["tests/test_total_monodromy.py::test_sebastiani_thom_total_monodromy_and_kernel"]),
    ("monodromy._fold: bit budget > -> >=", "monodromy.py",
     "if v.bit_length() > max_bits:",
     "if v.bit_length() >= max_bits:",
     ["tests/test_monodromy.py::test_fold_bit_budget_on_a_pseudo_anosov_word"]),
    ("_anchor_columns: interior bit off by one", "reconstruct.py",
     "if inside >> (k + 1) & 1]",
     "if inside >> k & 1]",
     ["tests/test_cover_oracle.py::test_chi_Q_is_the_sheet_pairing_along_the_anchor"]),
    ("mu_index: sign of the left case", "geometry.py",
     "return 1 if pos >> z1 & 1 and neg >> z0 & 1 else 0",
     "return -1 if pos >> z1 & 1 and neg >> z0 & 1 else 0",
     ["tests/test_geometry_oracle.py::test_triangle_predicates_match_reference"]),
    ("_split: zero-weight skip inverted", "groupoid.py",
     "if weight == 0:",
     "if weight != 0:",
     ["tests/test_groupoid_oracle.py::test_chi_matches_dense_character_at_huge_twists"]),
    ("read_int: accepts _", "words.py",
     'a sign, ASCII digits."""\n    if text.isascii() and "_" not in text:',
     'a sign, ASCII digits."""\n    if text.isascii():',
     ["tests/test_words.py::test_read_int_is_int_less_underscores_and_non_ascii_digits"]),
]


def pytest(where: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=where, env=env, capture_output=True, text=True)


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def main(argv) -> int:
    table = [t for t in MUTANTS if not argv or t[0] in argv]
    if len(table) != len(argv or MUTANTS):
        print(f"mutants: no mutant named {sorted(set(argv) - {t[0] for t in MUTANTS})}")
        return 1
    failures, start = [], time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        named = sorted({t for *_, tests in table for t in tests})
        run = pytest(base, named)
        if run.returncode != 0:
            print(run.stdout[-2000:] + run.stderr[-2000:])
            print("mutants: the named tests fail before any mutant is applied")
            return 1
        for k, (name, module, old, new, tests) in enumerate(table):
            where = Path(tmp) / f"m{k}"
            copy_tree(where)
            path = where / "src" / "braidmono" / module
            text = path.read_text()
            if text.count(old) != 1:
                failures.append(name)
                print(f"STALE    {name}: its text occurs {text.count(old)} times in {module}")
                continue
            path.write_text(text.replace(old, new))
            t0 = time.perf_counter()
            run = pytest(where, tests)
            took = time.perf_counter() - t0
            if run.returncode == 1:  # a test failed
                print(f"killed   {name} ({took:.1f} s)")
            else:
                failures.append(name)
                status = "SURVIVED" if run.returncode == 0 else f"ERROR {run.returncode}"
                print(f"{status} {name} ({took:.1f} s)")
                print(run.stdout[-2000:] + run.stderr[-2000:])
            shutil.rmtree(where)
    print(f"mutants: {len(table) - len(failures)}/{len(table)} killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
