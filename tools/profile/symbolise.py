#!/usr/bin/env python3
"""Ranks the functions in a sampler.c profile, symbolised with `nm`.

    symbolise.py PROFILE [--top N]

Prints each function's share of the samples as the innermost frame
(self) and anywhere on the stack (total). Addresses outside the
profiled executable are named by their file.
"""
import bisect
import collections
import re
import subprocess
import sys


def load(path):
    """The profile's mappings `(start, end, file)` and samples."""
    maps, samples = [], []
    for line in open(path):
        if line.startswith("map "):
            f = line.split()
            lo, hi = (int(x, 16) for x in f[1].split("-"))
            maps.append((lo, hi, int(f[3], 16), f[6] if len(f) > 6 else "[anon]"))
        elif line.strip():
            samples.append([int(x, 16) for x in line.split()])
    return maps, samples


def symbols(exe):
    """The executable's function starts and names, sorted by address."""
    out = subprocess.run(["nm", "-C", "-n", "--defined-only", exe],
                         capture_output=True, text=True, check=True).stdout
    table = []
    for line in out.splitlines():
        f = line.split(" ", 2)
        if len(f) == 3 and f[1] in "tTwW":
            table.append((int(f[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", f[2])))
    return [a for a, _ in table], [n for _, n in table]


def main():
    args = sys.argv[1:]
    if not args:
        sys.exit(__doc__)
    top = int(args[args.index("--top") + 1]) if "--top" in args else 25
    maps, samples = load(args[0])
    exe = next(m[3] for m in maps if m[3].startswith("/") and m[2] == 0)
    bias = min(m[0] for m in maps if m[3] == exe)
    starts, names = symbols(exe)

    def name(addr):
        for lo, hi, _, path in maps:
            if lo <= addr < hi and path != exe:
                return path.rsplit("/", 1)[-1]
        at = bisect.bisect_right(starts, addr - bias) - 1
        return names[at] if at >= 0 else hex(addr)

    stacks = [[name(a) for a in s] for s in samples]
    own = collections.Counter(s[0] for s in stacks)
    total = collections.Counter(f for s in stacks for f in set(s))
    n = max(len(stacks), 1)
    print(f"{len(stacks)} samples of {exe}")
    print(f"{'self':>7} {'total':>7}  function")
    for f, count in total.most_common(top):
        print(f"{100 * own[f] / n:6.1f}% {100 * count / n:6.1f}%  {f}")


if __name__ == "__main__":
    main()
