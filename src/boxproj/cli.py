"""boxproj command line: analyze | lbeta | project | constant | converge | check.

Configuration is a flat key = value text file ('#' starts a comment);
values are Python literals (lists for vectors and ladders) with "p/q"
accepted for numbers.  CSV output uses fixed 17-significant-digit
formatting and deterministic row order, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lattice import DirectionSet, MultiIndex, NonUnimodularError, multi_indices, product_derivative
from .bernoulli import error_expansion, monomial_error_series
from .projection import RULE_ORDER, SolverError, build_model, error_norm, project
from .asymptotics import convergence_sweep, error_constant, error_constant_l2
from .testfunctions import bump, gaussian, monomial
from .presets import PRESET_NAMES, preset
from . import checks, quadrature


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _split_top(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch in "[(":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur)
    if tail.strip():
        parts.append(tail)
    return parts


def _parse_value(text: str):
    text = text.strip()
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        pass
    if text.startswith("[") and text.endswith("]"):
        return [_parse_value(part) for part in _split_top(text[1:-1])]
    if "/" in text:
        try:
            return Fraction(text)
        except ValueError:
            pass
    return text


@dataclass
class ExperimentConfig:
    """Typed view of a config file; unknown keys are rejected early."""

    raw: dict = field(default_factory=dict)

    KNOWN = {
        "preset", "vectors", "function", "scale", "radius", "exponents",
        "p", "h", "ladder", "beta", "padding", "box", "domain",
        "tolerance", "grid", "series_radius", "norm_order",
    }

    def __post_init__(self):
        """Reject a list-valued key of the wrong shape on entry, before a
        command unpacks or iterates it."""
        seq = (list, tuple)
        for key in ("box", "domain"):
            val = self.raw.get(key)
            if val is not None and not (isinstance(val, seq) and len(val) == 2
                                        and all(isinstance(c, seq) for c in val)):
                raise ConfigError(f"{key} must be two corners [[lo...], [hi...]], got {val!r}")
        ladder, exps = self.raw.get("ladder"), self.raw.get("exponents")
        if ladder is not None and not (isinstance(ladder, seq) and ladder and all(
                isinstance(h, (int, float, Fraction)) and not isinstance(h, bool) for h in ladder)):
            raise ConfigError(f"ladder must be a nonempty list of mesh sizes, got {ladder!r}")
        if exps is not None and not isinstance(exps, seq):
            raise ConfigError(f"exponents must be a list of integers, got {exps!r}")
        vectors = self.raw.get("vectors")
        if vectors is not None and not (isinstance(vectors, seq) and all(
                isinstance(v, seq) and all(isinstance(x, int) and not isinstance(x, bool)
                                           for x in v) for v in vectors)):
            raise ConfigError(f"vectors must be a list of integer rows, got {vectors!r}")

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        raw = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = body.partition("=")
                key = key.strip()
                if key not in cls.KNOWN:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                raw[key] = _parse_value(value)
        return cls(raw=raw)

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def number(self, key, default=None) -> float | None:
        val = self.raw.get(key, default)
        if val is None:
            return None
        if isinstance(val, Fraction):
            return float(val)
        if isinstance(val, (int, float)):
            return float(val)
        raise ConfigError(f"key {key!r} must be a number")

    def integer(self, key, default=None, minimum: int = 1) -> int | None:
        """An integer key at or above minimum, by `quadrature._check_integer`."""
        val = self.raw.get(key, default)
        if val is not None:
            quadrature._check_integer(key, val, minimum)
        return val

    def direction_set(self) -> DirectionSet:
        if "vectors" in self.raw:
            return DirectionSet(self.raw["vectors"])
        name = self.raw.get("preset")
        if not name:
            raise ConfigError("config needs 'preset' or 'vectors'")
        try:
            return preset(str(name))
        except ValueError as exc:
            raise ConfigError(f"{exc}; known presets: {', '.join(PRESET_NAMES)}")

    def test_function(self, dim: int):
        tag = str(self.raw.get("function", "gaussian")).lower()
        if tag == "gaussian":
            return gaussian(dim, self.number("scale", 1.0))
        if tag == "bump":
            return bump(dim, self.number("radius", 3.0))
        if tag == "monomial":
            exps = self.raw.get("exponents")
            if exps is None:
                raise ConfigError("monomial needs 'exponents'")
            exps = MultiIndex.of(exps)
            if len(exps) != dim:
                raise ConfigError("exponents dimension mismatch")
            return monomial(exps)
        raise ConfigError(f"unknown function {tag!r} (gaussian|bump|monomial)")

    def box(self, key="box"):
        val = self.raw.get(key)
        if val is None:
            return None
        lo, hi = val
        return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)


def _emit(out_path, text: str):
    if out_path:
        tmp = out_path + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    return buf.getvalue()


def _describe(V: DirectionSet, cfg: ExperimentConfig) -> list[str]:
    src = cfg.get("preset") or "explicit"
    return [
        f"direction_set = {src}",
        f"vectors = {list(V.vectors)}",
        f"dimension = {V.dimension}",
        f"directions = {len(V)}",
        f"margin = {V.margin}",
        f"approximation_order = {V.margin + 1}",
        f"unimodular = {'true' if V.is_unimodular else 'false'}",
    ]


def cmd_analyze(cfg: ExperimentConfig, args) -> int:
    V = cfg.direction_set()
    lines = _describe(V, cfg)
    if not V.is_unimodular:
        lines.append("error = not unimodular: hyperplane-class expansion rejected")
        _emit(args.out, "\n".join(lines) + "\n")
        return 2
    classes = V.classes
    lines.append(f"classes = {len(classes)}")
    for i, cls in enumerate(classes):
        lines.append(
            f"class{i} = members={list(cls.members)} alpha={cls.alpha} "
            f"denominators={cls.denominators} scale={_fmt(cls.scale)}"
        )
    rows = []
    for beta in multi_indices(V.dimension, V.margin + 1):
        coeffs = [product_derivative(beta, cls.members) for cls in classes]
        rows.append([str(beta.exponents).replace(" ", "")] + coeffs)
    table = _csv_text(
        ["beta"] + [f"C_class{i}" for i in range(len(classes))], rows
    )
    _emit(args.out, "\n".join(lines) + "\n\n" + table)
    return 0


def cmd_lbeta(cfg: ExperimentConfig, args) -> int:
    V = cfg.direction_set()
    beta = cfg.get("beta")
    if beta is None:
        raise ConfigError("lbeta needs 'beta'")
    beta = MultiIndex.of((beta,) if isinstance(beta, int) else beta)
    if beta.order > V.margin + 1:
        raise ConfigError("beta order exceeds margin + 1")
    radius = cfg.integer("series_radius", 400)
    pts = quadrature.sample_grid(V.dimension, cfg.integer("grid", 17))
    closed = error_expansion(V, beta).evaluate(pts)
    series = monomial_error_series(V, beta, pts, radius).real
    rows = []
    for i in range(len(pts)):
        rows.append(list(pts[i]) + [closed[i], series[i], abs(closed[i] - series[i])])
    header = [f"x{j+1}" for j in range(V.dimension)] + ["closed_form", "series_N", "abs_diff"]
    _emit(args.out, _csv_text(header, rows))
    if args.out:
        print(f"series_radius = {radius}")
        print(f"max_abs_diff = {_fmt(float(np.abs(closed - series).max()))}")
    return 0


def cmd_project(cfg: ExperimentConfig, args) -> int:
    V = cfg.direction_set()
    f = cfg.test_function(V.dimension)
    h = cfg.number("h", 1.0)
    p = cfg.number("p", 2.0)
    order = cfg.integer("norm_order", RULE_ORDER)
    model = build_model(V, h, f, padding=cfg.integer("padding", minimum=0), box=cfg.box())
    coeffs = project(model, f)
    domain = cfg.box("domain")
    if domain is None and f.effective_box() is None:
        domain = cfg.box()
    norm, power = error_norm(f, model, coeffs, p, domain=domain, order=order)
    lines = _describe(V, cfg) + [
        f"h = {_fmt(h)}",
        f"window_lo = {tuple(int(a) for a in model.window_lo)}",
        f"window_shape = {model.window_shape}",
        f"unknowns = {model.unknowns}",
        f"residual = {_fmt(coeffs.residual)}",
        f"iterations = {coeffs.iterations}",
        f"p = {_fmt(p)}",
        f"error_norm = {_fmt(norm)}",
        f"error_power = {_fmt(power)}",
    ]
    print("\n".join(lines))
    if args.out:
        alphas = model.window_alphas()
        vals = coeffs.values.ravel()
        rows = [list(alphas[i]) + [vals[i]] for i in range(len(vals))]
        header = [f"alpha{j+1}" for j in range(V.dimension)] + ["coefficient"]
        _emit(args.out, _csv_text(header, rows))
    return 0


def cmd_constant(cfg: ExperimentConfig, args) -> int:
    V = cfg.direction_set()
    f = cfg.test_function(V.dimension)
    p = cfg.number("p", 2.0)
    value = error_constant(f, V, p)
    lines = _describe(V, cfg) + [f"p = {_fmt(p)}", f"constant = {_fmt(value)}"]
    if p == 2.0:
        closed = error_constant_l2(f, V)
        lines.append(f"constant_closed_p2 = {_fmt(closed)}")
        lines.append(f"two_route_rel_diff = {_fmt(abs(value - closed) / closed)}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_converge(cfg: ExperimentConfig, args) -> int:
    V = cfg.direction_set()
    f = cfg.test_function(V.dimension)
    p = cfg.number("p", 2.0)
    ladder = cfg.get("ladder")
    if not ladder:
        raise ConfigError("converge needs a nonempty 'ladder'")
    tol = cfg.number("tolerance", 0.05)
    rep = convergence_sweep(
        f, V, p, [float(h) for h in ladder],
        padding=cfg.integer("padding", minimum=0),
        norm_order=cfg.integer("norm_order", RULE_ORDER),
    )
    rows = [
        [h, rep.ratios[i], rep.fitted_rate, rep.constant, rep.rel_error]
        for i, h in enumerate(rep.ladder)
    ]
    csv_text = _csv_text(["h", "lhs_ratio", "fitted_rate", "rhs", "rel_err"], rows)
    ok = rep.rel_error <= tol
    summary = [
        f"p = {_fmt(p)}",
        f"expected_rate = {rep.critical_order}",
        f"fitted_rate = {_fmt(rep.fitted_rate)}",
        f"extrapolated_ratio = {_fmt(rep.extrapolated_ratio)}",
        f"rhs_constant = {_fmt(rep.constant)}",
        f"rel_err = {_fmt(rep.rel_error)}",
        f"tolerance = {_fmt(tol)}",
        f"result = {'pass' if ok else 'fail'}",
    ]
    _emit(args.out, csv_text)
    print("\n".join(summary))
    return 0 if ok else 1


def cmd_check(cfg: ExperimentConfig, args) -> int:
    results = checks.run_battery(perturb_gram=args.perturb_gram)
    lines = []
    for r in results:
        lines.append(json.dumps(
            {"check": r.name, "pass": r.passed, "value": float(r.value),
             "tol": r.tol, "note": r.note},
            sort_keys=True))
    failed = [r for r in results if not r.passed]
    lines.append(json.dumps({"summary": f"{len(results) - len(failed)}/{len(results)} passed"}))
    _emit(args.out, "\n".join(lines) + "\n")
    return 1 if failed else 0


COMMANDS = {
    "analyze": cmd_analyze,
    "lbeta": cmd_lbeta,
    "project": cmd_project,
    "constant": cmd_constant,
    "converge": cmd_converge,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="boxproj",
        description="Box-spline projection-error toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="key = value config file")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if name == "check":
            sp.add_argument("--perturb-gram", type=float, default=0.0,
                            help="test hook: add this to one Gram entry")
    args = parser.parse_args(argv)
    try:
        cfg = (ExperimentConfig.from_file(args.config) if args.config
               else ExperimentConfig())
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, NonUnimodularError, SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
