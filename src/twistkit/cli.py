"""Command-line front end: verification runs plus one-off computations.

Three subcommands:

``verify``
    Runs the registered check suite, prints a one-line-per-check summary,
    optionally writes the byte-reproducible JSON report, and exits nonzero
    when any non-skipped check fails.

``action``
    Evaluates the fermionic action for one geometry on explicit or seeded
    Weyl data, prints the degree-two generator coefficient matrix, and
    compares the operator engine against the closed-form density.

``dispersion``
    Solves one constant-coefficient plane-wave system and prints the
    determinant, the admissible frequencies, and the kernel spinors.

Configuration layering: flags override the ``--config`` file, the file
overrides the ``TWISTKIT_SEED`` environment variable, and everything falls
back to the ``RunConfig`` defaults.  Config files are flat ``key=value``
text; ``tolerance.<group>=1e-8`` overrides one group's tolerance and
``groups=a,b,c`` selects check groups.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .actions import (
    electro_operator_pieces,
    fermionic_action,
    fermionic_action_quadratic,
    overlapping_action_inputs,
    promote_weyl_fields,
    route_spread,
)
from .checks import GROUPS, RunConfig, report_json, run_checks
from .clifford import MAX_RAPIDITY, SpinBoost
from .dynamics import BOOSTED_KINDS, PROBLEM_KINDS, PlaneWaveProblem
from .geometries import DoubledGeometry, ElectrodynamicsGeometry, ManifoldGeometry
from .grassmann import pair_coefficient_matrix
from .operator_algebra import MAX_MODE_CUTOFF
from .torus_fields import FourierScalar, Section

#: The action subcommand reports failure when the engine and the closed
#: density drift further apart than this.
ACTION_TOL = 1e-10

#: How many degree-two coefficients the action subcommand prints before
#: truncating (the full matrix still decides the comparison error).
MAX_PRINTED_COEFFS = 24

#: A degree-two coefficient counts as nonzero only above this fraction of the
#: largest one; structurally zero pairings leave rounding residues far below.
RELATIVE_COEFF_FLOOR = 1e-12

GEOMETRY_NAMES = ("manifold", "doubled", "electro")

_CONFIG_KEYS = {"seed", "mode_cutoff", "probe_cutoff", "rapidity_max", "groups"}


class UsageError(Exception):
    """Bad flags, config files, or input files; exits with status 2."""


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def _parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def split_groups(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _resolve_run_config(args) -> RunConfig:
    """Build the run configuration with flag > file > environment > default."""
    file_cfg = (
        _parse_config_file(args.config) if getattr(args, "config", None) else {}
    )

    def pick(flag_name: str, file_key: str, fallback):
        flag_value = getattr(args, flag_name, None)
        if flag_value is not None:
            return flag_value
        if file_key in file_cfg:
            return file_cfg[file_key]
        return fallback

    seed = pick("seed", "seed", os.environ.get("TWISTKIT_SEED", "0"))
    mode_cutoff = pick("mode_cutoff", "mode_cutoff", 2)
    probe_cutoff = file_cfg.get("probe_cutoff", 3)
    rapidity_max = pick("rapidity", "rapidity_max", 2.0)
    groups_raw = pick("groups", "groups", None)
    groups = split_groups(groups_raw) if isinstance(groups_raw, str) else GROUPS

    tolerances: dict[str, float] = {}
    for key, value in file_cfg.items():
        if key.startswith("tolerance."):
            group = key[len("tolerance.") :]
            try:
                tolerances[group] = float(value)
            except ValueError as exc:
                raise UsageError(f"bad tolerance value for {key}: {value!r}") from exc
        elif key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")

    try:
        return RunConfig(
            seed=int(seed),
            mode_cutoff=int(mode_cutoff),
            probe_cutoff=int(probe_cutoff),
            rapidity_max=float(rapidity_max),
            groups=groups,
            tolerances=tolerances,
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _finite(value, label: str):
    """``value`` itself, or a usage error when it is nan or infinite."""
    if not np.all(np.isfinite(value)):
        raise UsageError(f"{label} must be finite, got {value!r}")
    return value


def parse_complex(text: str, flag: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise UsageError(f"{flag} expects a complex literal, got {text!r}") from exc
    return _finite(value, flag)


def parse_vector(text: str, length: int, flag: str) -> tuple[float, ...]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != length:
        raise UsageError(f"{flag} expects {length} comma-separated numbers")
    try:
        values = tuple(float(part) for part in parts)
    except ValueError as exc:
        raise UsageError(f"{flag} expects numbers, got {text!r}") from exc
    return _finite(values, flag)


def parse_axis(text: str) -> tuple[float, ...]:
    """The ``--axis`` of a boost: three finite numbers, not all zero."""
    axis = parse_vector(text, 3, "--axis")
    if not any(axis):
        raise UsageError("--axis must be a nonzero 3-vector")
    return axis


def parse_rapidity(value: float, flag: str) -> float:
    """A finite rapidity of magnitude at most ``MAX_RAPIDITY``."""
    rapidity = _finite(float(value), flag)
    if abs(rapidity) > MAX_RAPIDITY:
        raise UsageError(f"|{flag}| must be at most {MAX_RAPIDITY}")
    return rapidity


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:+.9g}{z.imag:+.9g}j"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    cfg = _resolve_run_config(args)
    try:
        report = None if args.json is None else open(args.json, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write the JSON report: {exc}") from exc
    start = time.perf_counter()
    records = run_checks(cfg)
    wall = time.perf_counter() - start
    print(
        f"seed={cfg.seed} mode_cutoff={cfg.mode_cutoff} "
        f"probe_cutoff={cfg.probe_cutoff} rapidity_max={cfg.rapidity_max} "
        f"groups={','.join(cfg.groups)}"
    )
    width = max((len(r.check_id) for r in records), default=8)
    for rec in records:
        if rec.status == "skip":
            print(f"skip {rec.check_id:<{width}}  (needs a positive rapidity cap)")
            continue
        print(
            f"{rec.status:<4} {rec.check_id:<{width}}  "
            f"max_err={rec.max_abs_error:10.3e}  tol={rec.tolerance:8.1e}  "
            f"{rec.elapsed_ms:8.1f} ms"
        )
    n_pass = sum(r.status == "pass" for r in records)
    n_fail = sum(r.status == "fail" for r in records)
    n_skip = sum(r.status == "skip" for r in records)
    print(
        f"{len(records)} checks: {n_pass} passed, {n_fail} failed, "
        f"{n_skip} skipped in {wall:.1f} s"
    )
    if report is not None:
        with report:
            report.write(report_json(cfg, records))
        print(f"wrote {args.json}")
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------


def _geometry_for(name: str, d: complex):
    if name == "manifold":
        return ManifoldGeometry()
    if name == "doubled":
        return DoubledGeometry()
    return ElectrodynamicsGeometry(d)


def _terms(terms, label: str, key: str, shape: tuple[int, ...]):
    """Yield ``(mode, amplitude)`` for each ``{"mode": ..., key: ...}`` term.

    A mode is four integers of size at most ``MAX_MODE_CUTOFF``; an integral
    float counts as its integer, a bool does not.  ``key`` holds ``[re, im]``
    pairs of JSON numbers nested to ``shape``, read exactly as the complex
    array they spell; a string or a bool is not a number.
    """
    if not isinstance(terms, list):
        raise UsageError(f"{label} must be a list of mode/{key} terms")
    for term in terms:
        try:
            mode = [
                int(m) if isinstance(m, float) and m.is_integer() else m
                for m in term["mode"]
            ]
            values = np.array(term[key], dtype=object)
            pairs = values.astype(float)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"bad term in {label}: {term!r}") from exc
        integral = all(type(m) is int and abs(m) <= MAX_MODE_CUTOFF for m in mode)
        numbers = all(type(x) in (int, float) for x in values.flat)
        if len(mode) != 4 or not integral or not numbers or pairs.shape != (*shape, 2):
            raise UsageError(
                f"{label}: a term needs four integers of size at most "
                f"{MAX_MODE_CUTOFF} as its mode and [re, im] pairs of shape {shape} "
                f"as its {key}, got {term!r}"
            )
        yield tuple(mode), _finite(pairs.view(complex)[..., 0], label)


def _load_weyl_file(path: str, n_fields: int):
    """Weyl data file: JSON with ``fields`` plus optional ``f``/``g``.

    ``fields`` is a list of per-slot term lists; each term is
    ``{"mode": [k0,k1,k2,k3], "amplitude": [[re,im],[re,im]]}``.  The
    potentials are lists of four term lists with scalar ``value`` entries.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot parse Weyl data file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "fields" not in doc:
        raise UsageError(f"{path}: expected an object with a 'fields' entry")
    raw_fields = doc["fields"]
    if not isinstance(raw_fields, list) or len(raw_fields) != n_fields:
        raise UsageError(
            f"{path}: this geometry needs exactly {n_fields} Weyl fields"
        )
    fields = [Section(2) for _ in raw_fields]
    for i, terms in enumerate(raw_fields):
        for mode, vec in _terms(terms, f"fields[{i}]", "amplitude", (2,)):
            fields[i] = fields[i] + Section.plane_wave(mode, vec)

    def potential(key: str):
        raw = doc.get(key)
        if raw is None:
            raw = [[]] * 4
        if not isinstance(raw, list) or len(raw) != 4:
            raise UsageError(f"{path}: '{key}' must list four components")
        out = [FourierScalar.zero() for _ in range(4)]
        for mu, terms in enumerate(raw):
            for mode, value in _terms(terms, f"{key}[{mu}]", "value", ()):
                out[mu] = out[mu] + FourierScalar.wave(mode, value)
        return out

    return fields, potential("f"), potential("g")


def cmd_action(args) -> int:
    d = parse_complex(args.d, "--d")
    geo = _geometry_for(args.geometry, d)
    n_fields = geo.n_weyl_fields
    cfg = _resolve_run_config(args)
    if args.weyl_file:
        fields, f, g = _load_weyl_file(args.weyl_file, n_fields)
        source = args.weyl_file
    else:
        rng = np.random.default_rng(cfg.seed)
        fields, f, g = overlapping_action_inputs(
            rng, n_fields, cutoff=cfg.mode_cutoff
        )
        source = f"seeded draw (seed={cfg.seed})"

    op = geo.dressed_dirac(f, g)
    promoted = promote_weyl_fields(fields)
    with np.errstate(over="ignore", invalid="ignore"):
        engine = fermionic_action(geo, op, promoted)
        quadratic = fermionic_action_quadratic(geo, op, promoted)
        closed = geo.closed_form_action(promoted.fields, f, g)
    for label, value in (("engine", engine), ("closed-form", closed)):
        if not np.isfinite(list(value.coeffs.values())).all():
            raise UsageError(f"the {label} action is not finite: the input overflows")
    spread = route_spread(engine, closed, quadratic)

    n = promoted.n_generators
    matrix = pair_coefficient_matrix(engine, n)
    floor = RELATIVE_COEFF_FLOOR * np.max(np.abs(matrix), initial=0.0)
    print(f"geometry: {args.geometry}  inputs: {source}  generators: {n}")
    entries = [
        (i, j, matrix[i, j])
        for i in range(n)
        for j in range(i + 1, n)
        if abs(matrix[i, j]) > floor
    ]
    if not entries:
        print("action: 0 (no degree-two coefficients)")
    else:
        entries.sort(key=lambda item: -abs(item[2]))
        shown = entries[:MAX_PRINTED_COEFFS]
        print(f"degree-two coefficients ({len(entries)} nonzero):")
        for i, j, value in shown:
            print(f"  theta[{i:>2}] theta[{j:>2}]  {_fmt_complex(value)}")
        if len(entries) > len(shown):
            print(f"  ... {len(entries) - len(shown)} more")
    if geo.n_sectors == 4:
        pieces = electro_operator_pieces(geo, f, g)
        total = None
        print("operator pieces (engine value per summand):")
        for name, piece in pieces.items():
            value = fermionic_action(geo, piece, promoted)
            total = value if total is None else total + value
            print(f"  {name:<10} |value| = {abs(value):.6e}")
        print(f"  piece-sum residual: {abs(total - engine):.3e}")
    print(f"closed-form comparison error: {spread:.3e}")
    return 0 if spread <= ACTION_TOL else 1


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------


def checked_solve(problem: PlaneWaveProblem):
    """``problem.solve()``; a system that overflows double precision is a usage error."""
    overflow = f"the {problem.kind} system overflows double precision at these inputs"
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = problem.solve()
    except np.linalg.LinAlgError as exc:
        raise UsageError(f"{overflow} ({exc})") from exc
    for label, value in (
        ("matrix", result.matrix),
        ("determinant", result.determinant),
        ("p0 roots", result.roots),
    ):
        if not np.all(np.isfinite(value)):
            raise UsageError(f"{overflow} (non-finite {label})")
    return result


def cmd_dispersion(args) -> int:
    p = parse_vector(args.p, 4, "--p")
    f = parse_vector(args.f, 4, "--f")
    if args.f0 is not None:
        f = (_finite(float(args.f0), "--f0"),) + f[1:]
    g = parse_vector(args.g, 4, "--g")
    d = parse_complex(args.d, "--d")
    boost = None
    if args.kind in BOOSTED_KINDS:
        axis = parse_axis(args.axis)
        boost = SpinBoost(0.5 * parse_rapidity(args.rapidity, "--rapidity"), axis)
    result = checked_solve(PlaneWaveProblem(kind=args.kind, p=p, f=f, g=g, d=d, boost=boost))
    print(f"kind: {args.kind}")
    print(f"determinant: {_fmt_complex(result.determinant)}")
    print("p0 roots: " + "  ".join(_fmt_complex(r) for r in result.roots))
    if result.kernel:
        print(f"kernel ({len(result.kernel)} spinor(s)):")
        for v in result.kernel:
            print("  [" + ", ".join(_fmt_complex(c) for c in v) + "]")
    else:
        print("kernel: empty (off shell)")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistkit",
        description="Twisted spectral geometry on the flat 4-torus: "
        "verification suite, fermionic actions, plane-wave dispersion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the registered check suite")
    verify.add_argument("--seed", type=int, default=None, help="root seed")
    verify.add_argument("--config", default=None, help="key=value config file")
    verify.add_argument(
        "--groups", default=None, help="comma-separated check groups"
    )
    verify.add_argument("--json", default=None, help="write the JSON report here")
    verify.add_argument(
        "--mode-cutoff", dest="mode_cutoff", type=int, default=None,
        help="Fourier mode cutoff for random draws",
    )
    verify.add_argument(
        "--rapidity", type=float, default=None,
        help="largest boost rapidity drawn (0 skips boost checks)",
    )
    verify.set_defaults(func=cmd_verify)

    action = sub.add_parser(
        "action", help="evaluate the fermionic action on Weyl data"
    )
    action.add_argument(
        "--geometry", choices=GEOMETRY_NAMES, default="manifold"
    )
    action.add_argument(
        "--d", default="-1j", help="coupling constant for the four-sector space"
    )
    action.add_argument(
        "--weyl-file", dest="weyl_file", default=None,
        help="JSON Weyl data; omit for a seeded draw",
    )
    action.add_argument("--seed", type=int, default=None, help="root seed")
    action.add_argument("--config", default=None, help="key=value config file")
    action.add_argument(
        "--mode-cutoff", dest="mode_cutoff", type=int, default=None,
        help="Fourier mode cutoff for the seeded draw",
    )
    action.set_defaults(func=cmd_action)

    dispersion = sub.add_parser(
        "dispersion", help="solve one plane-wave system"
    )
    dispersion.add_argument("--kind", choices=PROBLEM_KINDS, required=True)
    dispersion.add_argument(
        "--f0", type=float, default=None, help="time component of the potential"
    )
    dispersion.add_argument("--f", default="0,0,0,0", help="chiral potential")
    dispersion.add_argument("--g", default="0,0,0,0", help="vector potential")
    dispersion.add_argument("--d", default="0j", help="coupling constant")
    dispersion.add_argument("--p", default="0,0,0,0", help="trial 4-momentum")
    dispersion.add_argument(
        "--rapidity", type=float, default=0.0, help="boost rapidity"
    )
    dispersion.add_argument("--axis", default="0,0,1", help="boost axis")
    dispersion.set_defaults(func=cmd_dispersion)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
