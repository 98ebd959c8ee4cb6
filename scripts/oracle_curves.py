"""Dump the closed-form control-intensity curves as CSVs.

Writes R_p(t) profiles for the 1D Gaussian flow and the c*(t) time
components of the two toy diffusion families, ready for plotting:

    python3 scripts/oracle_curves.py --outdir out/oracles
"""

import argparse
import os

import numpy as np

from flowam.errors import DomainError
from flowam.oracles import (
    GaussianFlowSpec,
    ToyDiffusionSpec,
    ToyKind,
    rf_peak_time,
    rf_relative_strength,
    toy_control_argmax,
    toy_control_component,
)
from flowam.train import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out/oracles")
    ap.add_argument("--sigma", type=float, default=5.0)
    ap.add_argument("--horizon", type=float, default=5.0)
    ap.add_argument("--eta", type=float, default=1.0)
    ap.add_argument("--points", type=int, default=1001)
    args = ap.parse_args()
    if args.points < 2:
        ap.error(f"--points must be >= 2, got {args.points}")

    try:  # every spec checks its inputs before any CSV is written
        spec = GaussianFlowSpec(mu=0.0, sigma=args.sigma)
        ve = ToyDiffusionSpec(ToyKind.VE, T=args.horizon, eta=args.eta)
        vp = ToyDiffusionSpec(ToyKind.VP, T=args.horizon, eta=args.eta)
    except DomainError as e:
        ap.error(str(e))

    t = np.linspace(0.0, 1.0, args.points)
    ps = (2.0, 4.0, 6.0)
    rows = [
        {"t": float(ti), **{f"R_{p:g}": float(rf_relative_strength(spec, p, ti))
                            for p in ps}}
        for ti in t
    ]
    path = os.path.join(args.outdir, "relative_strength.csv")
    write_csv(rows, ["t"] + [f"R_{p:g}" for p in ps], path)
    print(f"R_p curves (sigma={args.sigma}, peak t*={rf_peak_time(spec):.3f}) "
          f"-> {path}")

    s = np.linspace(0.0, args.horizon, args.points)
    rows = [
        {"t": float(si),
         "c_ve": float(toy_control_component(ve, si)),
         "c_vp": float(toy_control_component(vp, si))}
        for si in s
    ]
    path = os.path.join(args.outdir, "toy_control.csv")
    write_csv(rows, ("t", "c_ve", "c_vp"), path)
    print(f"toy curves (argmax VE {toy_control_argmax(ve):.3f}, "
          f"VP {toy_control_argmax(vp):.3f}) -> {path}")


if __name__ == "__main__":
    main()
