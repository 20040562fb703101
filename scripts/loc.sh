#!/usr/bin/env sh
# Rust line count in two numbers: non-test code and test code.
#
# Counts every *.rs file under crates/, src/, tests/ and examples/
# (perfbench/ and target/ are not counted). Test code is every file
# under a tests/, benches/ or fixtures/ directory, plus each file's
# `#[cfg(test)]` module through the end of the file; the rest is
# non-test code.
#
# Usage: scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

find crates src tests examples -name '*.rs' ! -path '*/target/*' | sort | awk '
{
    file = $0
    in_test = (file ~ /(^|\/)(tests|benches|fixtures)\//)
    after_attr = 0
    while ((getline line < file) > 0) {
        if (!in_test && after_attr && line ~ /^(pub(\(crate\))? )?mod /) {
            # The module starts at its attribute line, counted above.
            in_test = 1
            code--
            tests++
        }
        after_attr = (line == "#[cfg(test)]")
        if (in_test) tests++; else code++
    }
    close(file)
}
END { printf "non-test %d\ntest %d\n", code, tests }'
