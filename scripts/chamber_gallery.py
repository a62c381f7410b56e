"""Render the Weyl chamber arrangement of a rank-2 action file as SVG and
print the chamber/witness table with certified signs.

The precision cap embedded in the file's options applies.

Example:
    python scripts/chamber_gallery.py fixtures/cartan_t3.json --out cartan.svg
"""

import argparse
import sys

from anosov_forge.cli import load_action_file_with_options
from anosov_forge.report import chambers_svg
from anosov_forge.weyl import (
    anosov_in_every_chamber,
    coarse_classes,
    lyapunov_data,
    weyl_chambers,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file")
    ap.add_argument("--out", default=None, help="write SVG here")
    args = ap.parse_args()

    action, cap = load_action_file_with_options(args.file)
    classes = coarse_classes(lyapunov_data(action), cap)
    if action.rank != 2:
        print(f"rank {action.rank} action: no planar diagram", file=sys.stderr)
        return 2
    chambers = weyl_chambers(classes, cap)

    print(f"{len(classes)} coarse classes, {len(chambers)} chambers")
    for ch in chambers:
        signs = "".join("+" if s > 0 else "-" for s in ch.signs)
        print(f"  chamber {signs}: witness {ch.witness}")
    if anosov_in_every_chamber(chambers):
        print("every chamber witness is Anosov: its class signs are strict")
    else:
        print("some chamber witness is not Anosov")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(chambers_svg(classes, chambers))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
