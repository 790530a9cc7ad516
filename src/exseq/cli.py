"""Command-line interface: verification, dimension tables, convergence
sweeps, Friedrichs sweeps, and interpolant export.

Exit status: 0 when every invoked check passes, 1 on a failed check, 2 on
usage errors (argparse's convention).
"""

import argparse
import sys

import numpy as np

from . import projectors as pj
from . import spectra as spc
from . import studies as st
from .refsimplex import quadrature


def _config_values(args, parser):
    """The config file's values, parsed by the subcommand's own parser as the
    flags they mirror; a repeatable flag takes a comma list, which the flag
    given on the command line replaces. Any fault is a usage error."""
    actions = {a.dest: a for a in parser._actions
               if a.dest not in ("help", "config")}
    try:
        with open(args.config) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    flags = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"bad config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None:
            parser.error(f"unknown config key {key!r}")
        vals = [val]
        if isinstance(action, argparse._AppendAction):
            if getattr(args, action.dest) is not None:  # the flag's list wins
                continue
            vals = [v.strip() for v in val.split(",")]
        flags += [f"{action.option_strings[0]}={v}" for v in vals]
    return vars(parser.parse_args(flags))


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _common_flags(sub, p_max, p_min=None, seed=None):
    """The flags every subcommand takes, plus --p-min and --seed (with
    `seed` as its help) for those that take them."""
    sub.add_argument("--config", help="flat key = value file mirroring the flags")
    if p_min is not None:
        sub.add_argument("--p-min", type=int, default=p_min, dest="p_min")
    sub.add_argument("--p-max", type=int, default=p_max, dest="p_max")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help=seed)
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="exseq",
        description="discrete complexes and commuting interpolation on simplices",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="run the verification suite")
    _common_flags(p_verify, p_max=6, seed="seed of the random elements")
    p_verify.set_defaults(format="json")

    p_dims = subs.add_parser("dims", help="dimension table vs closed forms")
    _common_flags(p_dims, p_max=8)

    p_conv = subs.add_parser("convergence", help="p-convergence sweep")
    _common_flags(p_conv, p_max=6, p_min=2,
                  seed="unused: the rate sweep draws nothing random")
    p_conv.add_argument("--operator", action="append", default=None,
                        choices=sorted(pj.OPERATORS))
    p_conv.add_argument("--suite", default="entire",
                        choices=("entire", "singular", "poly", "mixed"))
    p_conv.add_argument("--s", action="append", type=float, default=None)
    p_conv.add_argument("--dual-offset", type=int, default=6,
                        dest="dual_offset")

    p_fried = subs.add_parser("friedrichs", help="discrete Friedrichs sweep")
    _common_flags(p_fried, p_max=8, p_min=1)

    p_proj = subs.add_parser("project", help="interpolate suite fields, export")
    _common_flags(p_proj, p_max=3)
    p_proj.add_argument("--operator", default="grad3d",
                        choices=sorted(pj.OPERATORS))
    p_proj.add_argument("--suite", default="entire",
                        choices=("entire", "singular", "poly", "mixed"))

    args = parser.parse_args(argv)
    if args.config:
        # the file's values replace the defaults, so flags given still win
        sub = subs.choices[args.command]
        sub.set_defaults(**_config_values(args, sub))
        args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args):
    # the commands without --p-min start at degree 0
    st.check_degree_range(getattr(args, "p_min", 0), args.p_max)
    if args.command == "verify":
        report = st.run_verification(p_max=args.p_max, seed=args.seed)
        _emit(st.format_report(report, args.format), args.out)
        return 0 if report["ok"] else 1

    if args.command == "dims":
        rows = st._dims_table(args.p_max)
        _emit(st.format_rows(rows, args.format), args.out)
        return 0 if all(r["match"] for r in rows) else 1

    if args.command == "convergence":
        ops = tuple(args.operator or ["curl3d"])
        svals = tuple(args.s if args.s is not None else [0.0])
        cfg = st.StudyConfig(
            operators=ops,
            p_min=args.p_min,
            p_max=args.p_max,
            suite=args.suite,
            s_values=svals,
            dual_offset=args.dual_offset,
            seed=args.seed,
        )
        records, slopes = st.run_convergence(cfg)
        rows = st.records_to_rows(records)
        rows += [st.StudyRecord(s["operator"], -1, s["field"], s["s"],
                                s["norm"], np.nan, np.nan, s["slope"]).row()
                 for s in slopes]
        _emit(st.format_rows(rows, args.format), args.out)
        finite = all(np.isfinite(r.error) for r in records)
        return 0 if finite else 1

    if args.command == "friedrichs":
        rows = list(spc.friedrichs_rows(args.p_min, args.p_max))
        ok = all(0 < r["constant"] < np.inf for r in rows)
        _emit(st.format_rows(rows, args.format), args.out)
        return 0 if ok else 1

    if args.command == "project":
        op = args.operator
        dim = pj.OPERATORS[op][0]
        # the sweep's degree checks, before the plan is built
        st.StudyConfig(operators=(op,), p_min=args.p_max,
                       p_max=args.p_max).validate()
        plan = pj.ProjectorPlan(op, args.p_max)
        docs = []
        rows = []
        for f in st.fields_for(op, args.suite):
            slots = plan.apply(f)
            if args.format == "json":
                docs.append(
                    {
                        "operator": op,
                        "p": args.p_max,
                        "field": f.name,
                        "value_dim": plan.target.value_dim,
                        "modal_degree": plan.target.degree,
                        "coefficients": [float(c) for c in slots],
                    }
                )
            else:
                cell = plan.target.cell
                q = quadrature(cell, 2 * plan.target.degree)
                vals = plan.target.evaluate(slots, q.points)
                for i, pt in enumerate(q.points):
                    row = {"field": f.name}
                    for k in range(dim):
                        row[f"x{k}"] = float(pt[k])
                    v = np.atleast_1d(vals[i])
                    for k in range(len(v)):
                        row[f"value{k}"] = float(v[k])
                    rows.append(row)
        _emit(st.format_rows(docs if args.format == "json" else rows,
                             args.format), args.out)
        return 0

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
