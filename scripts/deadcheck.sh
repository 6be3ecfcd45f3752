#!/usr/bin/env bash
# Dead-export gate (CI): every exported top-level function declared in
# a non-test file under internal/ must be referenced by some non-test
# .go file of the module or of bench/. internal/ cannot be imported
# from outside the module, so a function no program here calls is a
# function nothing calls; tests alone do not keep one alive.
#
# A reference is the name qualified by the declaring package's name
# (par.PackInto) anywhere, or the bare name in the declaring package's
# own directory. Comments, string literals and the declaration itself
# do not count. Methods are not checked.
#
# scripts/deadcheck.allow lists the functions kept on purpose without
# a caller (test oracles and references), one "dir.Name reason" a
# line. An entry whose function is gone, or that has a caller, fails
# too, so the list stays exact.
#
# Run from anywhere; exits non-zero naming each offending function.
set -uo pipefail
cd "$(dirname "$0")/.."

allow=scripts/deadcheck.allow
files=$(find . -name '*.go' ! -name '*_test.go' \
	! -path '*/testdata/*' ! -path './.bench_build/*' ! -path './bench/out/*' | sort)

# shellcheck disable=SC2086
awk -v allowfile="$allow" '
FNR == 1 {
	inraw = 0
	dir = FILENAME
	sub(/^\.\//, "", dir)
	sub(/\/[^\/]*$/, "", dir)
	pkg = ""
}
pkg == "" && /^package [A-Za-z_]/ { pkg = $2 }
{
	line = code($0)
	if (match(line, /^func [A-Z][A-Za-z0-9_]*[[(]/)) {
		name = substr(line, 6, RLENGTH - 6)
		if (dir ~ /^internal\//) {
			key = dir "." name
			decl[key] = FILENAME ":" FNR
			declname[key] = pkg "." name
		}
		line = substr(line, RLENGTH)
	}
	while (match(line, /[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?/)) {
		tok = substr(line, RSTART, RLENGTH)
		prev = RSTART > 1 ? substr(line, RSTART - 1, 1) : ""
		line = substr(line, RSTART + RLENGTH)
		if (prev == ".") continue
		if ((d = index(tok, ".")) > 0) {
			qual[substr(tok, 1, d - 1) "." substr(tok, d + 1)] = 1
			tok = substr(tok, 1, d - 1)
		}
		bare[dir "." tok] = 1
	}
}
END {
	while ((getline entry < allowfile) > 0) {
		if (entry ~ /^[ \t]*(#|$)/) continue
		split(entry, f, /[ \t]+/)
		allowed[f[1]] = 1
	}
	fail = 0
	for (key in decl) {
		live = bare[key] || qual[declname[key]]
		if (key in allowed) {
			if (live) {
				printf "deadcheck: %s (%s) has a caller now; drop it from %s\n", key, decl[key], allowfile > "/dev/stderr"
				fail = 1
			}
			delete allowed[key]
		} else if (!live) {
			printf "deadcheck: %s (%s) is exported but nothing outside tests calls it; delete it or list it in %s\n", key, decl[key], allowfile > "/dev/stderr"
			fail = 1
		}
	}
	for (key in allowed) {
		printf "deadcheck: %s is listed in %s but not declared\n", key, allowfile > "/dev/stderr"
		fail = 1
	}
	if (!fail) print "deadcheck: every exported internal/ function has a caller or an allowlist entry"
	exit fail
}
# code returns s with comments, string and rune literals blanked, so a
# name in a message or a doc line is not a reference. A raw string
# may span lines; inraw carries that across calls.
function code(s,   out, i, ch, q) {
	out = ""
	q = inraw ? "`" : ""
	for (i = 1; i <= length(s); i++) {
		ch = substr(s, i, 1)
		if (q != "") {
			if (ch == "\\" && q != "`") i++
			else if (ch == q) q = ""
			continue
		}
		if (ch == "/" && substr(s, i + 1, 1) == "/") break
		if (ch == "\"" || ch == "\047" || ch == "`") {
			q = ch
			out = out " "
			continue
		}
		out = out ch
	}
	inraw = q == "`"
	return out
}
' $files
