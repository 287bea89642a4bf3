#!/usr/bin/env python3
# The same pipeline through the command-line surface.
#
# Everything the library computes is reachable from the `coexist` CLI with
# a JSON config; this script drives the three subcommands in-process and
# shows where the artifacts land. Equivalent shell usage:
#
#   coexist analyze --config demos/configs/psi4_interval.json --out-dir out
#   coexist trace   --config demos/configs/psi4_interval.json --out-dir out
#   coexist table   --config demos/configs/psi4_interval.json --out-dir out
#   coexist analyze --config ... --override model.eta=-1.0

import json
import pathlib

from coexist.cli import main

config = pathlib.Path(__file__).parent / "configs" / "psi4_interval.json"
out_dir = pathlib.Path(__file__).parent / "output" / "cli"
out_dir.mkdir(parents=True, exist_ok=True)

for argv in (
    ["analyze", "--config", str(config), "--out-dir", str(out_dir)],
    ["trace", "--config", str(config), "--out-dir", str(out_dir)],
    ["table", "--config", str(config), "--out-dir", str(out_dir), "--override", "k_list=[3,4,5,6]"],
    # flipping the coupling sign from the command line flips type I -> III
    ["analyze", "--config", str(config), "--out-dir", str(out_dir), "--override", "model.eta=-1.0"],
):
    print(f"$ coexist {' '.join(argv)}")
    code = main(argv)
    print(f"(exit {code})\n")

report = json.loads((out_dir / "report.json").read_text())
print("report sections:", ", ".join(report))
print("classified type:", report["diagnostics"]["type"])
print("outputs in", out_dir)
