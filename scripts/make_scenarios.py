#!/usr/bin/env python3
"""Regenerate the synthetic scenario files under scenarios/.

paperlike.scn is hand-maintained and left alone.
"""
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from btcrs import synth  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def main():
    out = {
        "delaynode.scn": synth.delay_node_scenario(),
        "twohalves.scn": synth.two_halves(n_nodes=1000, n_as=40),
    }
    for name, raw in out.items():
        path = HERE / name
        path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
