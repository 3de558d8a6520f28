#!/usr/bin/env bash
# Docs consistency checker, run by the CI docs job and by ctest (label
# selftest), and usable locally:
#
#   tools/check_docs.sh [path/to/sweep_main]
#
# 1. Every relative markdown link in README.md and docs/*.md must resolve
#    to a file in the repository, and every backticked path they cite under
#    src/, tests/, tools/, bench/, examples/ or docs/ must match one (globs
#    such as `src/mac/scrm.*` included; a command line cites its first word).
# 2. Every preset registered in the sweep CLI must appear in the README
#    preset table (pass the sweep_main binary as $1; skipped otherwise).
# 3. Every registered channel-state provider must appear in both the README
#    provider table and the docs/ACCURACY.md accuracy ladder (same binary;
#    a provider added to the registry without its accuracy contract being
#    documented fails the docs job).
# 4. Every rule ID in the determinism linter's table must have a rationale
#    section in tools/lint_rules.md (skipped when python3 is unavailable).
set -euo pipefail

cd "$(dirname "$0")/.."
fail=0

# --- 1. relative links resolve -------------------------------------------
for doc in README.md docs/*.md; do
  # Extract markdown link targets; keep only relative file links.
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    local_path="${target%%#*}"  # strip fragment
    [ -z "$local_path" ] && continue
    # Relative links resolve against the containing document's directory.
    case "$local_path" in
      /*) resolved="$local_path" ;;
      *) resolved="$(dirname "$doc")/$local_path" ;;
    esac
    if [ ! -e "$resolved" ]; then
      echo "BROKEN LINK: $doc -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\(([^)]+)\)' "$doc" | sed -E 's/^\]\((.*)\)$/\1/')

  # Cited paths resolve against the repository root.
  while IFS= read -r token; do
    cited="${token%% *}"
    if ! compgen -G "$cited" >/dev/null; then
      echo "MISSING PATH: $doc cites \`$cited\`"
      fail=1
    fi
  done < <(grep -oE '`(src|tests|tools|bench|examples|docs)/[^`]*`' "$doc" | tr -d '`')
done

# --- 2. every registered preset is documented in the README --------------
if [ "$#" -ge 1 ]; then
  sweep_main="$1"
  if [ ! -x "$sweep_main" ]; then
    echo "sweep_main binary not executable: $sweep_main"
    exit 1
  fi
  while IFS= read -r preset; do
    [ -z "$preset" ] && continue
    if ! grep -q "\`$preset\`" README.md; then
      echo "UNDOCUMENTED PRESET: $preset missing from the README preset table"
      fail=1
    fi
  done < <("$sweep_main" --list-presets | awk '{print $1}')

  # --- 3. every channel-state provider is documented ----------------------
  while IFS= read -r provider; do
    [ -z "$provider" ] && continue
    if ! grep -q "\`$provider\`" README.md; then
      echo "UNDOCUMENTED PROVIDER: $provider missing from the README provider table"
      fail=1
    fi
    if ! grep -q "\`$provider\`" docs/ACCURACY.md; then
      echo "UNDOCUMENTED PROVIDER: $provider missing from docs/ACCURACY.md"
      fail=1
    fi
  done < <("$sweep_main" --list-csi-providers | awk '{print $1}')
else
  echo "note: no sweep_main binary given; skipping preset/provider checks"
fi

# --- 4. every lint rule ID has a rationale section ------------------------
if command -v python3 >/dev/null 2>&1; then
  while IFS=$'\t' read -r rule_id _summary; do
    [ -z "$rule_id" ] && continue
    if ! grep -q "### \`$rule_id\`" tools/lint_rules.md; then
      echo "UNDOCUMENTED LINT RULE: $rule_id missing from tools/lint_rules.md"
      fail=1
    fi
  done < <(python3 tools/lint_determinism.py --list-rules)
else
  echo "note: python3 unavailable; skipping lint-rule doc check"
fi

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK"
