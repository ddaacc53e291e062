#!/usr/bin/env bash
# Check that a default-flags build runs on any x86-64 CPU: the only VEX or
# EVEX code (a `v...` mnemonic, or a %ymm/%zmm operand) may sit in functions
# whose names end in _avx2 or _avx512, the bodies the level-3 engine calls
# only after __builtin_cpu_supports said yes (src/blas/batch_engine.cpp).
#
# Usage: scripts/check_isa_isolation.sh build/libptucker.a
# Exits 1 and lists each offending function and instruction otherwise.
set -euo pipefail

if [[ $# -ne 1 || ! -f "$1" ]]; then
  echo "usage: $0 <object file or static library>" >&2
  exit 2
fi

objdump -d -C --no-show-raw-insn "$1" | awk '
  # Function header: "<address> <demangled name>:".
  /^[0-9a-f]+ <.*>:$/ {
    fn = substr($0, index($0, "<") + 1)
    sub(/>:$/, "", fn)
    name = fn
    while (sub(/ \[clone [^]]*\]$/, "", name)) {}
    allowed = (name ~ /_avx(2|512)$/ || name ~ /_avx(2|512)\(.*\)( const)?$/)
    next
  }
  # Instruction line: "  <offset>:<TAB><mnemonic> <operands>".
  /^ *[0-9a-f]+:\t/ {
    insn = substr($0, index($0, "\t") + 1)
    if (!allowed && (insn ~ /^v[a-z]/ || insn ~ /%[yz]mm/)) {
      print fn ": " insn
      bad++
    }
  }
  END {
    if (bad > 0) {
      printf "%d VEX/EVEX instruction(s) outside *_avx2/*_avx512 functions\n", bad
      exit 1
    }
  }'
echo "ISA isolation: VEX/EVEX code only in *_avx2/*_avx512 functions"
