# Shell checks on the braidmono CLI, for the CLI steps of
# .github/workflows/tier1.yml.  Source this file from the repository root,
# with PYTHONPATH=src, in a shell run with -e: a failed check ends it.

# refused ARGS...: the CLI exits 1 within 10 s with one stderr line under
# 200 bytes, which it prints and leaves in $err
refused() {
  local code=0
  err=$(timeout 10 python -m braidmono.cli "$@" 2>&1 >/dev/null) || code=$?
  printf '%s\n' "$err"
  test "$code" -eq 1
  test "$(printf '%s\n' "$err" | wc -l)" -eq 1
  test "$(printf '%s' "$err" | wc -c)" -lt 200
}

# refused_as LINE ARGS...: refused, and the stderr line is LINE
refused_as() {
  refused "${@:2}"
  test "$err" = "$1"
}

# names TEXT: the last refusal's stderr line contains TEXT
names() {
  printf '%s\n' "$err" | grep -qF -- "$1"
}

# pinned OUT ARGS...: `rep ARGS` exits 0 within 10 s and prints OUT
pinned() {
  local out
  out=$(timeout 10 python -m braidmono.cli rep "${@:2}")
  printf '%s\n' "$out"
  test "$out" = "$1"
}

# monomial ARGS...: `rep ARGS` exits 0 and prints a monomial matrix, one
# entry other than "0" per row and per column
monomial() {
  local out
  out=$(python -m braidmono.cli rep "$@")
  printf '%s\n' "$out" | python -c 'import json, sys
M = json.load(sys.stdin)["matrix"]
if any(sum(x != "0" for x in line) != 1 for line in (*M, *zip(*M))):
    sys.exit(f"not monomial: {M}")'
}
