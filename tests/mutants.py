"""Mutation harness: every oracle proves that it bites.

Each mutant in MUTANTS names a module of src/braidmono, an exact piece of
its source (it must occur exactly once), the replacement, and the tests
that must fail.  The harness first runs every named test on an unmutated
copy.  Then, for each mutant, it copies src/, tests/ and pyproject.toml to
a temporary directory of its own, applies the mutant there, and runs
pytest -x on the named tests; the mutants run concurrently, one at a time
per CPU (os.cpu_count()).  A mutant is killed when pytest reports
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
from concurrent.futures import ThreadPoolExecutor
from functools import partial
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
    ("reduce_reps: purity check dropped", "cocycles.py",
     "if needs_pure and perm != list(range(b.m)):",
     "if False:",
     ["tests/test_reduce_oracle.py::test_error_messages"]),
    ("reduce_reps: epsilon refusal dropped", "cocycles.py",
     "if not framed_ok and b.is_framed():",
     "if False:",
     ["tests/test_reduce_oracle.py::test_epsilon_letters_are_refused_before_any_pass"]),
    ("BraidWord: framed flag never set", "words.py",
     "                framed = True\n",
     "",
     ["tests/test_reduce_oracle.py::test_epsilon_letters_are_refused_before_any_pass"]),
    ("pl-pass: one exponent list for every column", "cocycles.py",
     "exps = [[0] * (m if multivariate else 1) for _ in range(m)]",
     "exps = [[0] * (m if multivariate else 1)] * m",
     ["tests/test_reduce_oracle.py::test_pl_fold_matches_letter_blocks"]),
    ("trusted assembly: every column reads one exponent list", "cocycles.py",
     "{tuple(cols[j]): 1}",
     "{tuple(cols[0]): 1}",
     ["tests/test_reduce_oracle.py::test_single_letters_and_empty_word"]),
    ("pl_letter: epsilon letter on the next strand", "words.py",
     "return k - 1, k - 1, k, e",
     "return k - 1, k - 1, k + 1, e",
     ["tests/test_reduce_oracle.py::test_pl_fold_matches_letter_blocks"]),
    ("rho_coeff: sign flipped for n odd", "monodromy.py",
     "return self.eps * (e if self.n_mod_4 & 1 else e % 2)",
     "return self.eps * (-e if self.n_mod_4 & 1 else e % 2)",
     ["tests/test_total_monodromy.py::test_sebastiani_thom_total_monodromy_and_kernel"]),
    ("cocycle_and_action: bit budget > -> >=", "monodromy.py",
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
    ("reconstruct._fan: fan check dropped", "reconstruct.py",
     "if cfg.basepoint is None:",
     "if False:",
     ["tests/test_reconstruct.py::test_fan_functions_refuse_tangents"]),
    ("monodromy._steps: coefficient negated", "monodromy.py",
     "out.append((i - 1, c, rows[i - 1]))",
     "out.append((i - 1, -c, rows[i - 1]))",
     ["tests/test_monodromy_oracle.py"]),
    ("validate_N: parity law for the wrong sign", "monodromy.py",
     "if sgn > 0 else",
     "if sgn < 0 else",
     ["tests/test_monodromy.py"]),
    ("_tabulate: fan tangent sides swapped", "geometry.py",
     "sides.append(((1 << i) - 2, (1 << (m + 1)) - (1 << (i + 1))))",
     "sides.append(((1 << (m + 1)) - (1 << (i + 1)), (1 << i) - 2))",
     ["tests/test_ingest_oracle.py::test_fan_matches_fraction_construction"]),
    ("Magnus fold: sigma's t_x term shifted on y", "cocycles.py",
     "_shift(new, cb, 1, tx)",
     "_shift(new, cb, 1, ty)",
     ["tests/test_reduce_oracle.py::test_magnus_fold_matches_letter_blocks"]),
    ("Magnus fold: sign of sigma^-1's -t_y^-1 term flipped", "cocycles.py",
     "_shift(new, cb, -1, ty)",
     "_shift(new, cb, 1, ty)",
     ["tests/test_reduce_oracle.py::test_magnus_fold_matches_letter_blocks"]),
    ("Magnus fold: perm swap dropped", "cocycles.py",
     "perm[a], perm[bb] = perm[bb], perm[a]  # the var swap, when var is perm",
     "pass",
     ["tests/test_reduce_oracle.py::test_magnus_fold_matches_letter_blocks"]),
    ("braid_permutation: rows not shifted to 1..m", "braids.py",
     "tuple(r + 1 for r in rows)",
     "tuple(rows)",
     ["tests/test_exhaustive.py::test_permutation_and_purity"]),
    ("braid_permutation: purity not read off the rows", "braids.py",
     "rows == list(range(b.m))",
     "True",
     ["tests/test_exhaustive.py::test_permutation_and_purity"]),
    ("linking_numbers: sign flipped", "braids.py",
     "tuple(-exps[j][i] if i != j",
     "tuple(exps[j][i] if i != j",
     ["tests/test_exhaustive.py::test_linking_numbers"]),
    ("linking_numbers: diagonal not zeroed", "braids.py",
     "-exps[j][i] if i != j else 0",
     "-exps[j][i]",
     ["tests/test_exhaustive.py::test_linking_numbers"]),
    ("linking_numbers: impure word not refused", "braids.py",
     "if rows != list(range(b.m)):",
     "if False:",
     ["tests/test_exhaustive.py::test_linking_numbers"]),
    ("format_braid: a cancelled word prints ''", "words.py",
     'if e != 0) or "1"',
     "if e != 0)",
     ["tests/test_exhaustive.py::test_format_then_parse"]),
    ("BraidWord product: framed flag of the right factor dropped", "words.py",
     "self._framed or other._framed",
     "self._framed",
     ["tests/test_words.py::test_product_and_inverse_check_no_letter_again"]),
    ("reduce_reps: gassner skips the path-change pass", "cocycles.py",
     'if source == "pl" or needs_pure:',
     'if source == "pl":',
     ["tests/test_reduce_oracle.py::test_gassner_refuses_an_impure_word_before_the_magnus_pass"]),
]


def pytest(where: Path, tests) -> subprocess.CompletedProcess:
    """pytest -x on tests in where.  Hypothesis's pytest plugin is not
    loaded: it costs a second of start-up per run, and the tests that use
    @given import hypothesis themselves."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-p", "no:hypothesispytest", *tests],
        cwd=where, env=env, capture_output=True, text=True)


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def run_mutant(tmp: str, k: int, mutant) -> tuple:
    """(report, killed): mutant k applied to its own copy under tmp, and
    its named tests run there."""
    name, module, old, new, tests = mutant
    where = Path(tmp) / f"m{k}"
    copy_tree(where)
    path = where / "src" / "braidmono" / module
    text = path.read_text()
    if text.count(old) != 1:
        return f"STALE    {name}: its text occurs {text.count(old)} times in {module}", False
    path.write_text(text.replace(old, new))
    t0 = time.perf_counter()
    run = pytest(where, tests)
    took = time.perf_counter() - t0
    shutil.rmtree(where)
    if run.returncode == 1:  # a test failed
        return f"killed   {name} ({took:.1f} s)", True
    status = "SURVIVED" if run.returncode == 0 else f"ERROR {run.returncode}"
    return f"{status} {name} ({took:.1f} s)\n" + run.stdout[-2000:] + run.stderr[-2000:], False


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
        with ThreadPoolExecutor(os.cpu_count()) as pool:
            reports = pool.map(partial(run_mutant, tmp), range(len(table)), table)
            for (name, *_), (report, killed) in zip(table, reports):
                print(report, flush=True)
                if not killed:
                    failures.append(name)
    print(f"mutants: {len(table) - len(failures)}/{len(table)} killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
