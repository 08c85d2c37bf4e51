"""Command-line front end.

One subcommand per invocation:

    modes      vibrational frequencies and mode vectors of a layout
    couplings  full coupling report (J, J13, eps, qubit frequencies)
    spectrum   conditional carrier-transition table
    table1     constrained search for the largest J at trap spacing d
    table3     constrained search for the largest J at ion spacing h
    cnot       CNOT pulse schedule, duration, and gate-fidelity check
    teleport   one teleportation run, reported as JSON
    verify     run the numeric invariant suite

Physical parameters come from a preset (``--preset table1-d4``), a config
file (``key = value`` lines, ``#`` comments), and command flags, in that
order of increasing precedence. `presets.layout_field` turns the merged
settings into a layout and field, and `couplings.solve_chain` solves them.
`table1` and `table3` share one handler, which reports the search winner's
design row as `couplings` builds it. `teleport` (always JSON) and `verify`
take no ``--format``.
Exit codes: 0 success; 2 when argparse rejects the command line; 1 for any
rejected value (unknown preset, bad config value, unnormalized amplitudes,
non-positive Rabi frequency, ...) or failed computation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from functools import cache

import numpy as np

from .constants import TWO_PI, DEFAULT_CONSTANTS, PhysicalConstants
from .couplings import (Chain, FieldConfig, carrier_spectrum, neighbor_resonance_shift,
                        solve_chain)
from .operators import cnot_matrix, deviation_up_to_phase
from .presets import PRESETS, layout_field
from .pulses import (FreeEvolution, INTERACTION, LAB, PulseContext, build_cnot,
                     schedule_unitary, serialize_schedule)
from .search import SearchSpace, maximize_J_linear, maximize_J_multitrap
from .teleport import ProtocolConfig, run_teleport
from .trap import TrapLayout
from . import verify as verify_mod

CONFIG_KEYS = {
    "preset": str,
    "mode": str,
    "d_um": float,
    "h_um": float,
    "w1_2pi_mhz": float,
    "w2_2pi_mhz": float,
    "w_2pi_mhz": float,
    "gradient_t_per_m": float,
    "b0_t": float,
    "eta": float,
    "mass_amu": float,
    "hyperfine_2pi_ghz": float,
    "g_factor": float,
    "rabi_2pi_mhz": float,
    "t_m_us": float,
    "eps_ceiling": float,
    "seed": int,
}


def load_config(path: str) -> dict:
    """Parse a ``key = value`` UTF-8 config file; undecodable bytes, unknown
    keys and bad values fail with the offending line number."""
    settings: dict = {}
    # surrogateescape defers decode errors to the line that holds them
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{path}:{lineno}: not valid UTF-8 text") from None
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                settings[key] = CONFIG_KEYS[key](value)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: malformed value {value!r} for {key!r}")
    return settings


def _merge_settings(args, default_preset: str | None = None) -> dict:
    """Preset, then config file, then flags; ``default_preset`` fills a missing layout."""
    settings: dict = {}
    if getattr(args, "config", None):
        settings.update(load_config(args.config))
    if getattr(args, "preset", None):
        settings["preset"] = args.preset
    if default_preset and "preset" not in settings and "mode" not in settings:
        settings["preset"] = default_preset
    if "preset" in settings:
        name = settings["preset"]
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
        merged = dict(PRESETS[name])
        merged.update({k: v for k, v in settings.items() if k != "preset"})
        merged["preset"] = name
        settings = merged
    return settings


def _constants(settings: dict) -> PhysicalConstants:
    constants = DEFAULT_CONSTANTS
    if "mass_amu" in settings:
        constants = constants.with_mass_amu(settings["mass_amu"])
    if "g_factor" in settings:
        constants = replace(constants, g_factor=settings["g_factor"])
    if "hyperfine_2pi_ghz" in settings:
        constants = replace(constants,
                            hyperfine=TWO_PI * settings["hyperfine_2pi_ghz"] * 1e9)
    return constants


def _chain(settings: dict) -> Chain:
    return solve_chain(*layout_field(settings, _constants(settings)))


def _pulse_timing(settings: dict) -> dict:
    """Slot time t_m (s) and Rabi frequency (rad/s) if set; else library defaults."""
    timing = {}
    if "t_m_us" in settings:
        timing["t_m"] = settings["t_m_us"] * 1e-6
    if "rabi_2pi_mhz" in settings:
        timing["rabi"] = TWO_PI * settings["rabi_2pi_mhz"] * 1e6
    return timing


def _plain(value):
    """Coerce numpy scalars and arrays to plain Python types for rendering."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    return value


def _emit(args, payload: dict, csv_rows: list[dict] | None = None) -> None:
    payload = _plain(payload)
    csv_rows = None if csv_rows is None else [_plain(r) for r in csv_rows]
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    elif args.format == "csv":
        rows = csv_rows if csv_rows is not None else [payload]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})
        text = buf.getvalue()
    else:
        lines = []

        def table(prefix, rows):
            cols = list(rows[0].keys())
            cells = [[str(row[c]) for c in cols] for row in rows]
            widths = [max(len(c), *(len(r[i]) for r in cells))
                      for i, c in enumerate(cols)]
            lines.append(prefix + "  ".join(c.ljust(w) for c, w in zip(cols, widths)))
            for r in cells:
                lines.append(prefix + "  ".join(v.ljust(w) for v, w in zip(r, widths)))

        def walk(prefix, obj):
            for k, v in obj.items():
                if isinstance(v, dict):
                    walk(f"{prefix}{k}.", v)
                elif isinstance(v, list) and v and all(isinstance(x, dict) for x in v):
                    lines.append(f"{prefix}{k}:")
                    table("  ", v)
                else:
                    lines.append(f"{prefix}{k} = {v}")

        walk("", payload)
        text = "\n".join(lines) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _couplings_payload(settings: dict, chain: Chain) -> dict:
    layout, field, eq, modes, couplings = (chain.layout, chain.field, chain.equilibrium,
                                           chain.modes, chain.couplings)
    payload = {
        "preset": settings.get("preset"),
        "mode": layout.mode,
        "gradient_t_per_m": field.gradient,
        "delta_um": eq.delta * 1e6,
        "h_um": eq.h * 1e6,
        "eps_max": couplings.eps_max,
        "j_2pi_khz": couplings.J / (TWO_PI * 1e3),
        "j13_2pi_khz": couplings.J13 / (TWO_PI * 1e3),
        "nu_2pi_mhz": [nu / (TWO_PI * 1e6) for nu in modes.nu],
        "raw_rad_s": {
            "j": couplings.J,
            "j13": couplings.J13,
            "nu": list(modes.nu),
            "w": list(couplings.w),
            "dwdz_rad_per_s_m": couplings.dwdz,
        },
    }
    if layout.mode == "multi":
        payload["d_um"] = layout.d * 1e6
        payload["w1_2pi_mhz"] = layout.w1 / (TWO_PI * 1e6)
        payload["w2_2pi_mhz"] = layout.w2 / (TWO_PI * 1e6)
    else:
        payload["w_2pi_mhz"] = layout.w1 / (TWO_PI * 1e6)
    return payload


#: CSV columns of a layout's design row, in `couplings`, `table1` and `table3`
_CSV_COLUMNS = {
    "multi": ("d_um", "w1_2pi_mhz", "w2_2pi_mhz", "gradient_t_per_m", "delta_um",
              "eps_max", "h_um", "j_2pi_khz", "j13_2pi_khz"),
    "linear": ("h_um", "w_2pi_mhz", "gradient_t_per_m", "eps_max", "j_2pi_khz",
               "j13_2pi_khz"),
}


def _csv_row(payload: dict, mode: str) -> list[dict]:
    return [{c: payload[c] for c in _CSV_COLUMNS[mode]}]


# -- subcommand handlers ------------------------------------------------------

def cmd_modes(args) -> int:
    settings = _merge_settings(args)
    chain = _chain(settings)
    modes = chain.modes
    payload = {
        "preset": settings.get("preset"),
        "mode": chain.layout.mode,
        "positions_um": [z * 1e6 for z in chain.equilibrium.positions],
        "nu_2pi_mhz": [nu / (TWO_PI * 1e6) for nu in modes.nu],
        "mode_matrix": [[float(x) for x in row] for row in modes.D],
        "raw_rad_s": {"nu": list(modes.nu)},
    }
    _emit(args, payload)
    return 0


def cmd_couplings(args) -> int:
    settings = _merge_settings(args)
    payload = _couplings_payload(settings, _chain(settings))
    _emit(args, payload, _csv_row(payload, payload["mode"]))
    return 0


def cmd_spectrum(args) -> int:
    settings = _merge_settings(args)
    chain = _chain(settings)
    couplings = chain.couplings
    spec = carrier_spectrum(couplings)
    rows = []
    for ion in range(3):
        others = [o for o in (1, 2, 3) if o != ion + 1]
        for k in range(4):
            label = f"{(k >> 1) & 1}{k & 1}"
            rows.append({
                "ion": ion + 1,
                "others": f"ion{others[0]}ion{others[1]}={label}",
                "frequency_rad_s": spec.transitions[ion, k],
                "offset_2pi_khz": (spec.transitions[ion, k] - couplings.w[ion])
                / (TWO_PI * 1e3),
            })
    payload = {
        "preset": settings.get("preset"),
        "neighbor_shift_2pi_mhz": neighbor_resonance_shift(
            chain.field, chain.equilibrium.h, chain.layout.constants) / (TWO_PI * 1e6),
        "spreads_2pi_khz": [s / (TWO_PI * 1e3) for s in spec.spreads],
        "transitions": rows,
    }
    _emit(args, payload, rows)
    return 0


#: the search each search command runs, and the flag that gives its spacing (um)
_SEARCHES = {"table1": (maximize_J_multitrap, "d"), "table3": (maximize_J_linear, "h")}


def cmd_search(args) -> int:
    settings = _merge_settings(args)
    constants = _constants(settings)
    search, flag = _SEARCHES[args.command]
    space = (SearchSpace(eps_ceiling=settings["eps_ceiling"])
             if "eps_ceiling" in settings else None)
    spacing = getattr(args, flag)
    result = search(spacing * 1e-6, space, constants)
    if not result.feasible:
        print("no feasible point found", file=sys.stderr)
        return 1
    p = result.params
    chain = solve_chain(TrapLayout(p.d, p.w1, p.w2, constants), FieldConfig(p.gradient))
    row = _csv_row(_couplings_payload(settings, chain), chain.layout.mode)[0]
    row[f"{flag}_um"] = spacing  # echoed: spacing * 1e-6 * 1e6 may differ in the last bit
    _emit(args, {**row, "evaluations": result.evaluations}, [row])
    return 0


def cmd_cnot(args) -> int:
    settings = _merge_settings(args, default_preset="table1-d4")
    couplings = _chain(settings).couplings
    try:
        control, target = (int(x) for x in args.pair.split(","))
    except ValueError:  # a wrong count or a non-integer
        raise ValueError(f"--pair takes control,target: two ion numbers such as 2,3, "
                         f"got {args.pair!r}") from None
    frame = LAB if args.frame == "lab" else INTERACTION
    ctx = PulseContext(couplings, frame, commensurate=(frame == LAB),
                       **_pulse_timing(settings))
    schedule = build_cnot(control, target, ctx)
    deviation = deviation_up_to_phase(schedule_unitary(schedule, couplings),
                                      cnot_matrix(control, target))
    t_zz = sum(item.duration for item in schedule.items
               if isinstance(item, FreeEvolution))
    payload = {
        "preset": settings.get("preset"),
        "pair": [control, target],
        "frame": frame,
        "zz_time_ms": t_zz * 1e3,
        "total_duration_ms": schedule.total_duration * 1e3,
        "pulse_count": sum(1 for _ in schedule.pulses()),
        "gate_deviation_from_cnot": deviation,
    }
    if frame == LAB:
        payload["max_commensuration_residual_rad"] = max(
            max(abs(r) for r in p.residuals) for p in schedule.pulses())
    if args.emit_schedule:
        with open(args.emit_schedule, "w", encoding="utf-8") as fh:
            fh.write(serialize_schedule(schedule))
        payload["schedule_file"] = args.emit_schedule
    _emit(args, payload)
    return 0


def cmd_teleport(args) -> int:
    settings = _merge_settings(args, default_preset="table1-d4")
    couplings = _chain(settings).couplings if args.mode != "ideal" else None
    config = ProtocolConfig(
        alpha=complex(args.alpha), beta=complex(args.beta), gate_mode=args.mode,
        seed=args.seed if args.seed is not None else settings.get("seed"),
        couplings=couplings, dephasing=(args.dephasing_rate_hz,) * 3,
        **_pulse_timing(settings))
    _write(args, run_teleport(config).to_json() + "\n")
    return 0


def cmd_verify(args) -> int:
    checks = verify_mod.run_all()
    width = max(len(name) for name, _, _ in checks)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<{width}}  {detail}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


@cache  # built once per process; parsing leaves the tree unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradion",
        description="Three trapped ions in a magnetic field gradient.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=True):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--preset", help=f"one of {', '.join(sorted(PRESETS))}")
        if formats:  # the reports `_emit` renders
            p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--output", help="write the report here instead of stdout")

    for name, fn in (("modes", cmd_modes), ("couplings", cmd_couplings),
                     ("spectrum", cmd_spectrum)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(handler=fn)

    for name, trap, spacing in (("table1", "micro-trap", "trap"),
                                ("table3", "linear-trap", "ion")):
        p = sub.add_parser(name, help=f"largest-J search for a {trap} spacing")
        common(p)
        p.add_argument(f"--{_SEARCHES[name][1]}", type=float, default=4.0,
                       help=f"{spacing} spacing in um")
        p.set_defaults(handler=cmd_search)

    p = sub.add_parser("cnot")
    common(p)
    p.add_argument("--pair", default="2,3", help="control,target (adjacent ions)")
    p.add_argument("--frame", choices=("interaction", "lab"), default="interaction")
    p.add_argument("--emit-schedule", help="write the pulse schedule to this file")
    p.set_defaults(handler=cmd_cnot)

    p = sub.add_parser("teleport")
    common(p, formats=False)
    p.add_argument("--alpha", default="1", help="complex amplitude of |0>")
    p.add_argument("--beta", default="0", help="complex amplitude of |1>")
    p.add_argument("--mode", choices=("ideal", "scheduled", "integrated"),
                   default="ideal")
    p.add_argument("--seed", type=int)
    p.add_argument("--dephasing-rate-hz", type=float, default=0.0,
                   help="phase-damping rate applied to every qubit (1/s)")
    p.set_defaults(handler=cmd_teleport)

    p = sub.add_parser("verify", help="run the numeric invariant suite")
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
