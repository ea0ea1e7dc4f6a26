"""Command-line front end: sweep, fan, trace, calibrate, oracle-check.

All file-emitting commands need --out; calibrate and oracle-check print JSON
to stdout. Failures exit nonzero with a JSON error record on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .analysis import DispersiveParams, chi, dressed_frequencies, n_crit, stark_to_photons
from .dynamics import propagate, survival_vs_nbar
from .field import evolve_field_numeric
from .output import json_text, provenance, write_json
from .strip import fan_diagram, find_avoided_crossings, g_eff_perturbative
from .sweep import SweepConfig, config_hash, run_oracle_check, run_sweep, strip_for_detuning
from .transmon import _check_finite, k_bend

CONFIG_KEYS = [f.name for f in dataclasses.fields(SweepConfig)]


def _write_error(error: str, detail: str) -> None:
    """The one JSON error record on stderr, a line of its own."""
    json.dump({"error": error, "detail": detail}, sys.stderr)
    sys.stderr.write("\n")


class _JsonErrorParser(argparse.ArgumentParser):
    def error(self, message):
        _write_error("usage", message)
        raise SystemExit(2)


def _add_physics_flags(parser: argparse.ArgumentParser, drive: bool = False) -> None:
    """--config, transmon, resonator and coupling flags; ``drive`` adds drive and step flags."""
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--e-c", dest="e_c", type=float)
    parser.add_argument("--k-eff", dest="k_eff", type=float)
    parser.add_argument("--g", dest="g", type=float)
    parser.add_argument("--omega-r", dest="omega_r", type=float)
    parser.add_argument("--levels", dest="level_count", type=int)
    parser.add_argument("--cutoff", dest="charge_cutoff", type=int)
    if drive:
        parser.add_argument("--omega-d", dest="omega_d", type=float)
        parser.add_argument("--kappa", dest="kappa", type=float)
        parser.add_argument("--epsilon", dest="epsilon", type=float)
        parser.add_argument("--duration", dest="duration", type=float)
        parser.add_argument("--dt", dest="dt", type=float)
        parser.add_argument("--stride", dest="sample_stride", type=int)


def _build_config(args) -> SweepConfig:
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    flags = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    flags = {key: value for key, value in flags.items() if value is not None}
    if flags.keys() & {"g", "k_eff"}:  # a coupling flag replaces the file's coupling source
        data = {key: value for key, value in data.items() if key not in ("g", "k_eff")}
    return SweepConfig.from_dict({**data, **flags})


def _header(config: SweepConfig, extra: list[str] | None = None) -> list[str]:
    units = "frequencies GHz, times ns, rates 1/ns, nbar photons"
    return provenance(config_hash(config), units) + (extra or [])


def _report(record: dict, out_dir, name: str) -> None:
    """Print ``record`` as JSON; with --out, also write it to ``out_dir/name``."""
    print(json_text(record))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_json(os.path.join(out_dir, name), record)


def _cmd_sweep(args) -> int:
    run_sweep(dataclasses.replace(_build_config(args), out_dir=args.out))
    return 0


def _cmd_fan(args) -> int:
    if not args.nbar_grid_step > 0:
        raise ValueError(f"--nbar-grid-step must be positive, got {args.nbar_grid_step}")
    _check_finite("--nbar-max", args.nbar_max)
    if args.nbar_max < 0:
        raise ValueError(f"--nbar-max must be >= 0, got {args.nbar_max}")
    config = _build_config(args)
    strip_cfg = strip_for_detuning(config, args.delta, args.ng)
    grid = np.arange(0.0, args.nbar_max + 1e-12, args.nbar_grid_step)
    spectrum = fan_diagram(strip_cfg, grid)
    crossings = find_avoided_crossings(spectrum, min_gap=args.min_gap, max_gap=args.max_gap)
    os.makedirs(args.out, exist_ok=True)
    extra = [f"delta: {args.delta}", f"n_g: {args.ng}"]
    spectrum.to_csv(os.path.join(args.out, "fan.csv"), _header(config, extra))
    write_json(
        os.path.join(args.out, "crossings.json"),
        {
            "config_hash": config_hash(config),
            "delta": args.delta,
            "n_g": args.ng,
            "units": "nbar photons, gap and g_eff GHz",
            "crossings": [c.to_dict() for c in crossings],
        },
    )
    return 0


def _cmd_trace(args) -> int:
    config = _build_config(args)
    sim = config.simulation(args.delta, args.ng, args.state)
    trace = propagate(sim)
    os.makedirs(args.out, exist_ok=True)
    extra = [f"delta: {args.delta}", f"n_g: {args.ng}", f"initial_state: {args.state}"]
    trace.to_csv(os.path.join(args.out, "trace.csv"), _header(config, extra))
    survival_vs_nbar(trace).to_csv(
        os.path.join(args.out, "survival.csv"), _header(config, extra)
    )
    evolve_field_numeric(sim.drive).to_csv(
        os.path.join(args.out, "field.csv"), _header(config)
    )
    return 0


def _cmd_calibrate(args) -> int:
    if (args.target_level is None) != (args.nbar_cross is None):
        raise ValueError("--target-level and --nbar-cross must be given together")
    config = _build_config(args)
    strip_cfg = strip_for_detuning(config, args.delta, args.ng)
    eigen = strip_cfg.eigen
    g = strip_cfg.coupling
    omega_q = config.omega_r + args.delta
    eta = eigen.anharmonicity
    params = DispersiveParams(
        g=g, delta=args.delta, eta=eta, omega_r=config.omega_r, omega_q=omega_q
    )
    chi_value = chi(params)
    dressed0, dressed1 = dressed_frequencies(params)
    report = {
        "delta": args.delta,
        "n_g": args.ng,
        "omega_q": omega_q,
        "e_j": eigen.provenance.e_j,
        "g": g,
        "eta": eta,
        "chi": chi_value,
        "omega_r_dressed_ket0": dressed0,
        "omega_r_dressed_ket1": dressed1,
        "n_crit": n_crit(args.delta, g),
        "k_bend": k_bend(omega_q, config.omega_r, eta),
        "units": "frequencies GHz, photon numbers dimensionless",
    }
    if args.stark_shift is not None:
        report["stark_shift"] = args.stark_shift
        report["stark_photons"] = stark_to_photons(args.stark_shift, chi_value)
    if args.target_level is not None:
        report["g_eff"] = g_eff_perturbative(
            strip_cfg, args.target_level, args.nbar_cross
        )
        report["target_level"] = args.target_level
        report["nbar_cross"] = args.nbar_cross
    _report(report, args.out, "calibration.json")
    return 0


def _cmd_oracle_check(args) -> int:
    config = _build_config(args)
    # run_oracle_check owns the defaults; pass only the flags given
    given = {"delta": args.delta, "n_g_values": args.ng_values, "n_max": args.n_max}
    report = run_oracle_check(config, **{k: v for k, v in given.items() if v is not None})
    _report(report, args.out, "oracle_check.json")
    return 0 if report["passed"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(prog="mistsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mistsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="detuning x offset-charge x state sweep")
    _add_physics_flags(p, drive=True)
    p.add_argument("--threshold", dest="threshold", type=float)
    p.add_argument("--nbar-step", dest="nbar_step", type=float)
    p.add_argument("--delta-grid", dest="delta_grid", type=float, nargs="+")
    p.add_argument("--ng-grid", dest="n_g_grid", type=float, nargs="+")
    p.add_argument("--states", dest="initial_states", type=int, nargs="+")
    p.add_argument("--workers", dest="workers", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fan", help="fan diagram and avoided crossings at one point")
    _add_physics_flags(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--ng", type=float, default=0.0)
    p.add_argument("--nbar-max", dest="nbar_max", type=float, default=60.0)
    p.add_argument("--nbar-grid-step", dest="nbar_grid_step", type=float, default=0.25)
    p.add_argument("--min-gap", dest="min_gap", type=float, default=1e-4)
    p.add_argument("--max-gap", dest="max_gap", type=float, default=0.2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fan)

    p = sub.add_parser("trace", help="single simulation populations")
    _add_physics_flags(p, drive=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--ng", type=float, default=0.0)
    p.add_argument("--state", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("calibrate", help="dispersive quantities for given parameters")
    _add_physics_flags(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--ng", type=float, default=0.0)
    p.add_argument("--stark-shift", dest="stark_shift", type=float)
    p.add_argument("--target-level", dest="target_level", type=int)
    p.add_argument("--nbar-cross", dest="nbar_cross", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("oracle-check", help="strip-vs-ladder spectral identity")
    _add_physics_flags(p)
    p.add_argument("--delta", type=float)
    p.add_argument("--ng-values", dest="ng_values", type=float, nargs="+")
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:
        _write_error(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
