"""The reference job: fixed pure-Python work that measures the machine.

    python perfbench/reference.py

The benchmark times this job in fresh processes beside the program's jobs,
round after round, and scales its time metrics by how fast the reference
ran in the same run (see ``run.py``).  It imports nothing from the program,
so no change to the program moves it; its work must never change either,
or the benchmark's figures stop being comparable with earlier ones.

The work is an integer scan of the kind the program does: for every q from
1 with 4*q below 10**5, compare the sorted five base-10 digits (leading
zeros kept) of q and 4*q.  It prints the number of matches, which must be
EXPECTED.
"""

from __future__ import annotations

import sys

N, BASE, LENGTH = 4, 10, 5
EXPECTED = 22


def digits(value: int) -> list[int]:
    out = []
    for _ in range(LENGTH):
        value, digit = divmod(value, BASE)
        out.append(digit)
    return out


def scan() -> int:
    limit = BASE**LENGTH
    found = 0
    for q in range(1, (limit - 1) // N + 1):
        if sorted(digits(q)) == sorted(digits(N * q)):
            found += 1
    return found


def main() -> int:
    found = scan()
    print(found)
    return 0 if found == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main())
