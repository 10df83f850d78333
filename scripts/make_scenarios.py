#!/usr/bin/env python3
"""Regenerate the default scenario files under scenarios/."""

import json
from dataclasses import asdict
from pathlib import Path

from cellray.config import Scenario

OUT = Path(__file__).resolve().parent.parent / "scenarios"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for shape in ("fusiform", "spherical", "pyramidal"):
        path = OUT / f"{shape}.json"
        with open(path, "w") as fh:
            json.dump(asdict(Scenario(shape=shape)), fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
