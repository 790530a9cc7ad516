import json

import numpy as np
import pytest

from exseq import calculus as ca
from exseq import cli
from exseq import poincare as pc
from exseq import studies as st


def test_config_validation():
    cfg = st.StudyConfig(operators=("curl3d",), p_min=4, p_max=2)
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = st.StudyConfig(operators=("nope",))
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = st.StudyConfig(operators=("grad3d",), s_values=(1.5,))
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = st.StudyConfig(operators=("grad2d",), s_values=(1.5,), p_max=4)
    cfg.validate()  # the 2D scale extends beyond 1
    cfg = st.StudyConfig(operators=("grad1d",), p_max=16)
    cfg.validate()


def test_records_sorted_and_complete():
    cfg = st.StudyConfig(operators=("grad1d",), p_min=2, p_max=6,
                         suite="mixed", s_values=(0.0,))
    records, slopes = st.run_convergence(cfg)
    keys = [(r.operator, r.field, r.s, r.norm_id, r.p) for r in records]
    assert keys == sorted(keys)
    assert all(np.isfinite(r.error) for r in records)
    assert all(r.denominator > 0 for r in records)
    assert all(abs(r.ratio - r.error / r.denominator) < 1e-12 for r in records)
    assert slopes


def test_superalgebraic_decay_smooth_1d():
    cfg = st.StudyConfig(operators=("grad1d",), p_min=2, p_max=10,
                         suite="entire", s_values=(0.0,))
    records, _ = st.run_convergence(cfg)
    errs = {}
    for r in records:
        if r.field == "exp":
            errs[r.p] = r.error
    # raw error: log err vs p curves downward faster than any fixed slope in
    # log p: successive log-reduction factors grow
    ps_ = sorted(errs)
    drops = [np.log(errs[ps_[i]] / errs[ps_[i + 1]])
             for i in range(len(ps_) - 1)]
    assert all(d > 0 for d in drops)
    assert drops[-1] > drops[0]


def test_dims_rows_contract():
    rows = st._dims_table(3)
    assert set(rows[0].keys()) == {"p", "space", "dim", "closed_form", "match"}
    assert all(r["match"] for r in rows)


def test_csv_format_roundtrip(tmp_path):
    rows = [{"a": 1, "b": 0.5, "c": "x,y"}, {"a": 2, "b": float("nan"), "c": "q"}]
    text = st.format_rows(rows, "csv")
    assert text.splitlines()[0] == "a,b,c"
    assert '"x,y"' in text  # RFC-4180 quoting of embedded commas


def test_verification_report_small():
    rep = st.run_verification(p_max=2, seed=1)
    assert rep["ok"], {k: v["ok"] for k, v in rep["sections"].items()}
    # the flags are Python bools in process too, not only in the JSON
    types = {k: type(v["ok"]) for k, v in rep["sections"].items()}
    assert types == dict.fromkeys(rep["sections"], bool)
    text = st.format_report(rep, "json")
    parsed = json.loads(text, parse_constant=_refuse_constant)
    assert parsed["ok"] is True


def test_splitting_fault_is_reported_not_raised(monkeypatch):
    # a splitting that does not reconstruct its input fails the poincare
    # section of the report, as every other residual does
    apply = pc.RegularizedInverse.apply

    def scaled(self, space, slots):
        out_space, out = apply(self, space, slots)
        return out_space, 2.0 * out

    monkeypatch.setattr(pc.RegularizedInverse, "apply", scaled)
    rep = st.run_verification(p_max=1, seed=1)
    poincare = rep["sections"]["poincare"]
    assert poincare["ok"] is False and poincare["splitting_residual"] > 1e-9
    assert "[FAIL] poincare" in st.format_report(rep, "csv").splitlines()


def _refuse_constant(token):
    # strict JSON (RFC 8259) has no Infinity, -Infinity or NaN token
    raise ValueError(f"non-standard JSON constant {token}")


def test_full_verification_p6():
    rep = st.run_verification(p_max=6, seed=0)
    assert rep["ok"], {k: v["ok"] for k, v in rep["sections"].items()}
    assert rep["sections"]["commuting"]["worst"] <= 1e-8
    assert max(rep["sections"]["projection"]["worst"].values()) <= 1e-9
    assert rep["geometry"]["face_angle_hypothesis_2pi3"] is True


def test_cli_dims(tmp_path, capsys):
    out = tmp_path / "dims.csv"
    code = cli.main(["dims", "--p-max", "3", "--format", "csv",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,space,dim,closed_form,match"
    assert len(lines) > 10


def test_cli_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--bogus"])
    assert exc.value.code == 2


def test_cli_convergence_deterministic(tmp_path):
    args = ["convergence", "--operator", "grad1d", "--p-min", "2",
            "--p-max", "6", "--suite", "mixed", "--s", "0", "--seed", "11",
            "--format", "csv"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_verify_deterministic(tmp_path):
    args = ["verify", "--p-max", "1", "--seed", "3", "--format", "json"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_friedrichs(tmp_path):
    out = tmp_path / "fried.csv"
    code = cli.main(["friedrichs", "--p-min", "1", "--p-max", "3",
                     "--out", str(out), "--format", "csv"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "case,p,constant,min_singular_value,dim"


def test_cli_project_json_and_csv(tmp_path):
    outj = tmp_path / "interp.json"
    code = cli.main(["project", "--operator", "grad2d", "--suite", "poly",
                     "--p-max", "3", "--format", "json", "--out", str(outj)])
    assert code == 0
    docs = json.loads(outj.read_text())
    assert docs and docs[0]["operator"] == "grad2d"
    outc = tmp_path / "interp.csv"
    code = cli.main(["project", "--operator", "l2_2d", "--suite", "poly",
                     "--p-max", "2", "--format", "csv", "--out", str(outc)])
    assert code == 0
    header = outc.read_text().splitlines()[0]
    assert header.startswith("field,x0,x1,value")


@pytest.mark.parametrize("op, p_max", [("grad2d", 14), ("grad3d", 20)])
def test_cli_project_refuses_a_degree_beyond_the_cap(op, p_max, monkeypatch,
                                                     capsys):
    # `convergence` refuses these degrees too (2D and 3D caps are 10); the
    # check runs before any plan is built
    from exseq import projectors as pj

    built = []
    monkeypatch.setattr(pj, "ProjectorPlan", lambda *args: built.append(args))
    assert cli.main(["project", "--operator", op, "--p-max", str(p_max)]) == 1
    assert built == []
    assert f"beyond cap 10 for {op}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--p-max", "-1"], ["dims", "--p-max", "-1"],
    ["friedrichs", "--p-min", "3", "--p-max", "1"],
    ["friedrichs", "--p-min", "-1", "--p-max", "1"]])
def test_cli_refuses_an_empty_or_negative_degree_range(argv, capsys):
    # exit 1 with one message before any work, not an empty table or a
    # traceback from deep inside the run
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: invalid degree range" in captured.err


@pytest.mark.parametrize("run", [
    lambda p_max: st.run_verification(p_max, seed=0), st._dims_table],
    ids=["run_verification", "dims table"])
def test_python_api_refuses_a_negative_degree(run):
    # the range check of the CLI, before any work: not an error from deep
    # inside the run, nor an empty table
    with pytest.raises(ValueError, match="invalid degree range"):
        run(-1)


@pytest.mark.parametrize("argv", [
    ["verify", "--p-min", "1"], ["dims", "--p-min", "1"],
    ["dims", "--seed", "1"], ["friedrichs", "--seed", "1"],
    ["project", "--p-min", "1"], ["project", "--seed", "1"]])
def test_cli_subcommand_takes_only_the_flags_it_reads(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_cli_config_file(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("p_max = 3\n# comment\nformat = csv\n")
    out = tmp_path / "dims.csv"
    code = cli.main(["dims", "--config", str(cfgf), "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[-1].startswith("3,")


def test_cli_config_format_key_is_the_flag_name(tmp_path):
    # config keys mirror the flags: "format" sets --format, and "fmt", which
    # names no flag, is refused like any unknown key
    cfgf = tmp_path / "run.cfg"
    out = tmp_path / "dims.json"
    cfgf.write_text("p_max = 1\nformat = json\n")
    assert cli.main(["dims", "--config", str(cfgf), "--out", str(out)]) == 0
    assert {r["p"] for r in json.loads(out.read_text())} == {0, 1}
    cfgf.write_text("p_max = 1\nfmt = json\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--config", str(cfgf), "--out", str(out)])
    assert exc.value.code == 2


def test_cli_flags_override_config_file(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("p_max = 1\n")
    out = tmp_path / "dims.csv"
    code = cli.main(["dims", "--config", str(cfgf), "--p-max", "3",
                     "--out", str(out)])
    assert code == 0
    assert {r.split(",")[0] for r in out.read_text().splitlines()[1:]} == {
        "0", "1", "2", "3"}


def test_cli_config_repeatable_operator(tmp_path):
    # a repeatable flag in the file is a comma list, not a string iterated
    # per character ("unknown operator 'g'")
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("operator = grad3d\np_min = 1\np_max = 1\n"
                    "dual_offset = 2\n")
    out = tmp_path / "conv.csv"
    assert cli.main(["convergence", "--config", str(cfgf),
                     "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert rows and {r.split(",")[0] for r in rows} == {"grad3d"}


def test_cli_config_repeatable_s(tmp_path):
    # "s = 0.5" raised a TypeError; a comma list gives one record per order
    cfgf = tmp_path / "run.cfg"
    out = tmp_path / "conv.csv"
    for s_line, orders in (("s = 0.5", {"0.5"}), ("s = 0.5, 1", {"0.5", "1.0"})):
        cfgf.write_text(f"operator = grad1d\n{s_line}\np_min = 2\np_max = 2\n")
        assert cli.main(["convergence", "--config", str(cfgf),
                         "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert {r[3] for r in rows if r[1] == "2"} == orders


def test_cli_config_key_must_be_a_flag_of_the_subcommand(tmp_path):
    # "command" is no flag: it used to switch verify to dims silently
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("command = dims\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--config", str(cfgf), "--p-max", "0"])
    assert exc.value.code == 2


def test_cli_flag_replaces_the_config_files_list(tmp_path):
    # flags override the file: --operator replaces the file's operator list
    # instead of being appended to it
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("operator = curl2d\ns = 0.5\n")
    out = tmp_path / "conv.csv"
    assert cli.main(["convergence", "--config", str(cfgf), "--operator",
                     "grad1d", "--s", "0", "--p-min", "2", "--p-max", "2",
                     "--out", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert {(r[0], r[3]) for r in rows} == {("grad1d", "0.0")}


@pytest.mark.parametrize("text, message", [
    ("p-max 3\n", "bad config line: 'p-max 3'"),
    ("p-max = x\n", "argument --p-max: invalid int value: 'x'"),
    ("operator = bogus\n", "argument --operator: invalid choice: 'bogus'"),
    (None, "cannot read config file"),
])
def test_cli_config_errors_are_usage_errors(text, message, tmp_path, capsys):
    # a bad config file is a usage error like a bad flag: exit 2 with
    # argparse's message and no traceback
    cfgf = tmp_path / "run.cfg"
    if text is not None:
        cfgf.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.main(["convergence", "--config", str(cfgf), "--p-max", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"exseq convergence: error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("config", [
    {"operators": ("grad1d", "grad1d")},
    {"operators": ("grad1d",), "s_values": (0.0, 0.0)},
    {"operators": ("grad1d",), "s_values": (0, 0.0)},
])
def test_config_refuses_a_repeated_operator_or_order(config):
    # a repeat would write each record twice and weigh it twice in the fits
    with pytest.raises(ValueError, match="repeated"):
        st.StudyConfig(p_min=2, p_max=2, **config).validate()


def test_config_rejects_degrees_beyond_the_quadrature_cap():
    # grad1d at s in (0, 1) builds a degree-(p + 7) Gram, so p = 14 needs a
    # degree-42 rule; the config is refused before any work is done
    cfg = st.StudyConfig(operators=("grad1d",), p_min=2, p_max=14,
                         s_values=(0.0, 0.5))
    with pytest.raises(ValueError, match=r"grad1d at p=14, s=0\.5 .*42"):
        cfg.validate()
    st.StudyConfig(operators=("grad1d",), p_min=2, p_max=13,
                   s_values=(0.0, 0.5)).validate()
    st.StudyConfig(operators=("grad1d",), p_max=20, s_values=(0.0, 1.0)).validate()
    with pytest.raises(ValueError, match=r"grad3d at p=2, s=0 "):
        st.StudyConfig(operators=("grad3d",), p_min=2, p_max=2,
                       dual_offset=16).validate()


@pytest.mark.parametrize("op", sorted(ca.OPERATORS))
def test_gram_degrees_are_the_grams_a_sweep_builds(op, monkeypatch):
    # every Gram is constructed here, memoised or built for one
    # `best_approx` call; a cleared memo makes each memoised one new
    from exseq import cache
    from exseq import sobolev as sb

    built = set()
    init = sb.SobolevGram.__init__

    def spy(self, cell, degree, top=None):
        built.add(degree)
        init(self, cell, degree, top)

    monkeypatch.setattr(sb.SobolevGram, "__init__", spy)
    cache.clear()
    s_values = (0.0, 0.5, 1.0)
    st.run_convergence(st.StudyConfig(operators=(op,), p_min=1, p_max=1,
                                      s_values=s_values, dual_offset=2))
    assert built == set().union(
        *(st._gram_degrees(op, 1, s, 2) for s in s_values))


@pytest.mark.parametrize("op", sorted(ca.OPERATORS))
def test_records_read_no_gram_above_the_pairing_degree(op, monkeypatch):
    # a record slices the leading g.n columns of its field's pairings, so no
    # Gram it reads may be of a higher degree than the pairings' modes; and
    # the pairings are built exactly when some record reads a Gram
    from exseq import cache
    from exseq import sobolev as sb

    dim = ca.OPERATORS[op][0]
    cfg = st.StudyConfig(operators=(op,), p_min=1, p_max=2, dual_offset=2,
                         s_values=(0.0, 0.5, 1.0) + ((1.5, 2.0) if dim == 2
                                                     else ()))
    records_for, gram = st._records_for, sb.gram
    inside, read = [], []

    def records_spy(op, p, *args):
        inside.append(p)
        try:
            return records_for(op, p, *args)
        finally:
            inside.pop()

    def gram_spy(cell, degree, top=None):
        if inside:
            read.append((inside[-1], degree))
        return gram(cell, degree, top)

    monkeypatch.setattr(st, "_records_for", records_spy)
    monkeypatch.setattr(sb, "gram", gram_spy)
    cache.clear()
    st.run_convergence(cfg)
    pairing = {p: st._pairing_degree(op, p, cfg) for p in (1, 2)}
    assert {p for p, _ in read} == {p for p, d in pairing.items()
                                    if d is not None}
    assert [(p, d) for p, d in read if d > pairing[p]] == []


_SWEEP_OPS = ("grad3d", "curl3d", "div3d")


def _small_sweep(ops=_SWEEP_OPS):
    return st.StudyConfig(operators=ops, p_min=1, p_max=2, s_values=(0.0,))


def _spy_tabulate(monkeypatch):
    """Record the (degree, points) of every `Cell.tabulate` call."""
    from exseq.refsimplex import Cell

    calls = []
    tabulate = Cell.tabulate

    def spy(self, degree, pts):
        calls.append((degree, np.array(pts)))
        return tabulate(self, degree, pts)

    monkeypatch.setattr(Cell, "tabulate", spy)
    return calls


def _calls_on(calls, degree, pts):
    """How many recorded calls tabulate `degree` on exactly `pts`."""
    return sum(d == degree and x.shape == pts.shape and np.array_equal(x, pts)
               for d, x in calls)


def _covers_in_blocks(calls, degree, pts):
    """Whether the recorded calls of `degree` tabulate `pts` exactly once,
    in order, each on at most `_POINT_BLOCK` of them: one streamed pass."""
    from exseq import polyspace as ps

    blocks = [x for d, x in calls if d == degree]
    return (len(pts) > ps._POINT_BLOCK and len(blocks) > 1
            and max(len(x) for x in blocks) <= ps._POINT_BLOCK
            and np.array_equal(np.concatenate(blocks), pts))


def test_sweep_tabulates_each_target_once_on_the_study_rule(monkeypatch):
    from exseq import cache
    from exseq.refsimplex import make_reference_cell, quadrature

    cache.clear()
    calls = _spy_tabulate(monkeypatch)
    cell = make_reference_cell(3).cell
    for op in _SWEEP_OPS:
        cfg = _small_sweep((op,))
        assert len(st.fields_for(op, cfg.suite)) == 2
        calls.clear()
        st.run_convergence(cfg)
        for p in range(cfg.p_min, cfg.p_max + 1):
            degree = p + 1  # the degree of every 3D target
            pts = quadrature(cell, min(2 * degree + 14, 40)).points
            n = _calls_on(calls, degree, pts)
            assert n == 1, (op, p, n)


@pytest.mark.parametrize("op, s_values, offset", [
    ("grad3d", (0.0, 0.5), 2),  # the gradient's dual modes, degree P + 2
    ("curl3d", (0.5, 1.0), 0),  # the curl's dual modes at s > 0, degree P
])
def test_sweep_tabulates_dual_modes_once_per_degree(monkeypatch, op, s_values,
                                                    offset):
    from exseq import cache
    from exseq.refsimplex import make_reference_cell, quadrature

    cache.clear()
    calls = _spy_tabulate(monkeypatch)
    cell = make_reference_cell(3).cell
    cfg = st.StudyConfig(operators=(op,), p_min=1, p_max=2, s_values=s_values)
    assert len(st.fields_for(op, cfg.suite)) == 2
    st.run_convergence(cfg)
    for p in range(cfg.p_min, cfg.p_max + 1):
        # one streamed pass pairs both fields; no table of the rule is formed
        degree = p + 1 + cfg.dual_offset + offset
        pts = quadrature(cell, min(2 * (p + 1) + 14, 40)).points
        assert _covers_in_blocks(calls, degree, pts), p


def test_div3d_sweep_tabulates_its_rich_modes_once_per_degree(monkeypatch):
    # the fractional denominator pairs every field with the degree-(p + 7)
    # modes in one streamed pass over the study rule; at s = 0 no dual norm
    # reads that degree
    from exseq import cache
    from exseq.refsimplex import make_reference_cell, quadrature

    cache.clear()
    calls = _spy_tabulate(monkeypatch)
    cell = make_reference_cell(3).cell
    cfg = st.StudyConfig(operators=("div3d",), p_min=2, p_max=3,
                         s_values=(0.0,))
    assert len(st.fields_for("div3d", cfg.suite)) == 2
    st.run_convergence(cfg)
    for p in range(cfg.p_min, cfg.p_max + 1):
        pts = quadrature(cell, min(2 * (p + 1) + 14, 40)).points
        assert _covers_in_blocks(calls, p + 1 + cfg.dual_offset, pts), p


def test_sweep_keeps_one_degree_alive_around_its_denominators(monkeypatch):
    # each degree's plan is dead once its fields are interpolated, before
    # its denominators; and no memo entry keeps the spectrum of a
    # denominator's rich Gram, which is built for one `best_approx` call
    import weakref

    from exseq import cache
    from exseq import projectors as pj
    from exseq import sobolev as sb

    plans, calls = [], []
    ProjectorPlan, best_approx = pj.ProjectorPlan, sb.best_approx

    def plan_spy(op, p):
        plan = ProjectorPlan(op, p)
        plans.append(weakref.ref(plan))
        return plan

    def best_approx_spy(*args, **kwargs):
        calls.append([ref() is None for ref in plans])
        return best_approx(*args, **kwargs)

    monkeypatch.setattr(pj, "ProjectorPlan", plan_spy)
    monkeypatch.setattr(sb, "best_approx", best_approx_spy)
    cfg = st.StudyConfig(operators=("curl3d", "div3d"), p_min=2, p_max=3,
                         s_values=(0.0,))
    cache.clear()
    st.run_convergence(cfg)
    assert len(plans) == 4
    assert calls and all(all(dead) for dead in calls)
    rich = {p + 1 + cfg.dual_offset for p in range(cfg.p_min, cfg.p_max + 1)}
    spectra = [g.degree for g in cache._entries.values()
               if isinstance(g, sb.SobolevGram) and g._first is not None]
    assert not rich & set(spectra)


def _gate_sweeps(p_max):
    """The criterion-08 configs over p = 2..p_max: the s = 0 sweep of the
    three 3D operators, then the grad3d s = 1 pass."""
    return [st.StudyConfig(operators=_SWEEP_OPS, p_min=2, p_max=p_max),
            st.StudyConfig(operators=("grad3d",), p_min=2, p_max=p_max,
                           s_values=(1.0,))]


def test_s1_sweep_shares_one_top_factor_per_cell():
    # the order-1 dual forms slice one Cholesky factor of I + S_top per
    # cell; no Gram with a top keeps an A1 or a factor of its own
    from exseq import cache
    from exseq import sobolev as sb

    cache.clear()
    for cfg in _gate_sweeps(4):
        st.run_convergence(cfg)
    factors = [key for key in cache._entries
               if key[0] == "exseq.sobolev._top_factor"]
    assert len(factors) == 1
    tops = [g for g in cache._entries.values()
            if isinstance(g, sb.SobolevGram) and g.top is not None]
    assert tops and all(g._A1 is None and g._cho is None for g in tops)


def test_gate_sweeps_traced_peaks():
    # cold, the criterion-08 sweeps at p = 2..6 peak at 30.4 MiB (s = 0)
    # and 26.6 MiB (s = 1) traced, bounded here at about 1.24 times; with
    # whole-rule dual and rich tables and a per-degree A1 and factor for
    # every s = 1 dual Gram they peaked at 52.0 and 47.7 MiB
    import tracemalloc

    from exseq import cache

    cache.clear()
    peaks = []
    tracemalloc.start()
    try:
        for cfg in _gate_sweeps(6):
            tracemalloc.reset_peak()
            st.run_convergence(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 37.5 and peaks[1] <= 33.0, peaks


def test_grad1d_sweep_tabulates_no_dual_modes_at_integer_s(monkeypatch):
    # on the interval only the fractional value norm (0 < s < 1) reads the
    # degree-(P + 2) modes; there is no gradient dual norm
    from exseq import cache
    from exseq.refsimplex import Cell

    cache.clear()
    degrees = []
    tabulate = Cell.tabulate

    def spy(self, degree, pts):
        degrees.append(degree)
        return tabulate(self, degree, pts)

    monkeypatch.setattr(Cell, "tabulate", spy)
    cfg = st.StudyConfig(operators=("grad1d",), p_min=2, p_max=3,
                         s_values=(0.0, 1.0))
    st.run_convergence(cfg)
    assert degrees
    assert max(degrees) < cfg.p_min + 1 + cfg.dual_offset


def _gate_sweep(ops, s_values):
    """The acceptance gate's criterion-08 config, at p = 2..3."""
    return st.StudyConfig(operators=ops, p_min=2, p_max=3, suite="entire",
                          s_values=s_values, dual_offset=6)


def _csv(cfg):
    return st.format_rows(st.records_to_rows(st.run_convergence(cfg)[0]),
                          "csv")


def test_gate_s1_pass_reuses_the_s0_degree_data(monkeypatch):
    # the gate's grad3d s = 1 pass reads each degree's errors, denominators
    # and dual pairings from its s = 0 pass: it builds no plan and tabulates
    # no dual modes, and its records equal those of a cold run
    from exseq import cache
    from exseq import projectors as pj

    dual = _gate_sweep(("grad3d",), (1.0,))
    cache.clear()
    cold = _csv(dual)
    cache.clear()
    st.run_convergence(_gate_sweep(_SWEEP_OPS, (0.0,)))
    plans = []
    ProjectorPlan = pj.ProjectorPlan

    def plan_spy(op, p):
        plans.append((op, p))
        return ProjectorPlan(op, p)

    monkeypatch.setattr(pj, "ProjectorPlan", plan_spy)
    calls = _spy_tabulate(monkeypatch)
    warm = _csv(dual)
    assert not plans
    dual_degrees = {p + 1 + dual.dual_offset + 2
                    for p in range(dual.p_min, dual.p_max + 1)}
    assert not dual_degrees & {d for d, _ in calls}
    assert warm == cold


@pytest.mark.parametrize("first, second", [
    # the pairing degree goes from None (curl3d at s = 0) to P
    pytest.param(_gate_sweep(("curl3d",), (0.0,)),
                 _gate_sweep(("curl3d",), (0.5,)), id="pairing degree"),
    # the stiffness top of div3d's fractional denominator goes from its own
    # rich degree to grad3d's P + 2
    pytest.param(_gate_sweep(("div3d",), (0.0,)),
                 _gate_sweep(("div3d", "grad3d"), (0.0,)), id="stiffness top"),
])
def test_memoised_degree_data_is_keyed_by_what_it_reads(first, second):
    from exseq import cache

    cache.clear()
    cold = _csv(second)
    cache.clear()
    st.run_convergence(first)
    assert _csv(second) == cold


def _small_verification():
    return st.run_verification(p_max=2, seed=1)


# every operator but the interval's gradient, whose projection nothing checks
_VERIFY_OPS = [op for op in ca.OPERATORS if op != "grad1d"]


def _holds_plan(x, seen=None):
    """Whether `x` is a `ProjectorPlan` or holds one in a tuple, list, dict
    or package object, at any depth."""
    from exseq import projectors as pj

    seen = set() if seen is None else seen
    if id(x) in seen:
        return False
    seen.add(id(x))
    if isinstance(x, pj.ProjectorPlan):
        return True
    if isinstance(x, (tuple, list)):
        return any(_holds_plan(v, seen) for v in x)
    if isinstance(x, dict):
        return any(_holds_plan(v, seen) for v in (*x.keys(), *x.values()))
    if type(x).__module__.startswith("exseq.") and hasattr(x, "__dict__"):
        return _holds_plan(vars(x), seen)
    return False


def _memoised_plans():
    """The memo names under which a plan is held, checked by type, so a plan
    memoised under any name is found."""
    from exseq import cache

    assert cache._entries
    return [k[0] for k, v in cache._entries.items() if _holds_plan(v)]


def test_sweep_keeps_no_plan_in_the_memo():
    from exseq import cache

    cache.clear()
    st.run_convergence(_small_sweep())
    assert _memoised_plans() == []


def test_verification_keeps_no_plan_in_the_memo():
    from exseq import cache

    cache.clear()
    _small_verification()
    assert _memoised_plans() == []


def _spy_plans(monkeypatch):
    """Record the (operator, p) of every `ProjectorPlan` built, and the
    (operator, p) of every plan still alive at each build."""
    import weakref

    from exseq import projectors as pj

    built, alive = [], []
    ProjectorPlan = pj.ProjectorPlan

    def spy(op, p):
        alive.extend((o, q) for o, q, ref in built if ref())
        plan = ProjectorPlan(op, p)
        built.append((op, p, weakref.ref(plan)))
        return plan

    monkeypatch.setattr(pj, "ProjectorPlan", spy)
    return built, alive


def test_verification_builds_each_plan_once(monkeypatch):
    from collections import Counter

    built, _ = _spy_plans(monkeypatch)
    _small_verification()
    assert Counter((op, p) for op, p, _ in built) == Counter(
        (op, p) for op in _VERIFY_OPS for p in range(3))


def test_verification_keeps_one_plan_alive(monkeypatch):
    # every plan is dead before the next one is built, within a degree too
    built, alive = _spy_plans(monkeypatch)
    _small_verification()
    assert {p for _, p, _ in built} == {0, 1, 2}
    assert alive == []


def _all_plans_at_once(p, samples, suite):
    """`_degree_checks` as it was when every plan of the degree was built
    first and each commuting chain read its two plans from one dict."""
    from exseq import polyspace as ps
    from exseq import projectors as pj

    plans = {op: pj.ProjectorPlan(op, p) for op in samples}
    errors = {op: pj.projection_error(plans[op], s) for op, s in samples.items()}
    rows = []
    for operator, (dim, slot) in ca.OPERATORS.items():
        chained = ca.operator_at(dim, slot + 1)
        if chained is None:
            continue
        deriv = ca.COMPLEX[dim][slot]
        for f in suite.get(operator, ()):
            plan, nxt = plans[operator], plans[chained]
            a_slots = plan.apply(f)
            t = plan.target
            a = ca.diff_slots(deriv, t, a_slots)
            b = ps.pad_slots(nxt.apply(ca.DERIVATIVES[deriv].field(f)),
                             t.cell, nxt.target.value_dim, nxt.target.degree,
                             t.degree)
            residual = float(np.linalg.norm(a - b))
            scale = max(float(np.linalg.norm(a_slots)), 1e-30)
            rows.append({"identity": f"{ca.FAMILIES[slot]}_chain_{dim}d",
                         "field": f.name, "residual": residual,
                         "scale": scale, "rel_residual": residual / scale,
                         "p": p})
    return errors, rows


def test_verification_streaming_plans_keeps_the_report(monkeypatch):
    # one plan at a time gives the report of all of a degree's plans at once
    report = st.format_report(_small_verification(), "json")
    monkeypatch.setattr(st, "_degree_checks", _all_plans_at_once)
    assert report == st.format_report(_small_verification(), "json")


def _spy_gram_tables(monkeypatch):
    """Record the (dim, degree) of every derivative-matrix set and stiffness
    table the package asks for, memo hits included."""
    from exseq import polyspace as ps
    from exseq import sobolev as sb

    deriv, stiff = [], []
    deriv_matrices, stiffness = ps._deriv_matrices, sb._stiffness

    def deriv_spy(cell, degree):
        deriv.append((cell.dim, degree))
        return deriv_matrices(cell, degree)

    def stiffness_spy(cell, top):
        stiff.append((cell.dim, top))
        return stiffness(cell, top)

    monkeypatch.setattr(ps, "_deriv_matrices", deriv_spy)
    monkeypatch.setattr(sb, "_stiffness", stiffness_spy)
    return deriv, stiff


def test_sweep_at_s0_builds_no_dual_gram_tables(monkeypatch):
    # at s = 0 the gradient's dual norm and its P-stability read only the
    # Grams' sizes: only the H2 denominators' target degrees are built
    from exseq import cache

    cache.clear()
    deriv, stiff = _spy_gram_tables(monkeypatch)
    cfg = st.StudyConfig(operators=("grad3d",), p_min=2, p_max=3,
                         s_values=(0.0,))
    st.run_convergence(cfg)
    assert {d for dim, d in deriv if dim == 3} == {3, 4}
    assert not stiff


def test_sweep_slices_one_stiffness_table_at_its_top(monkeypatch):
    # the dual norms at s = 1 and the div3d fractional surrogate read leading
    # blocks of one stiffness table at the config's top; the tet derivative
    # matrices serve only the target degrees
    from exseq import cache

    deriv, stiff = _spy_gram_tables(monkeypatch)
    cfg = st.StudyConfig(operators=("grad3d", "div3d"), p_min=1, p_max=2,
                         s_values=(0.0, 1.0))
    top = cfg.p_max + 1 + cfg.dual_offset + 2  # grad3d's P + 2 at p_max
    assert cfg.stiffness_tops() == {3: top}
    cache.clear()
    st.run_convergence(cfg)
    assert {d for dim, d in deriv if dim == 3} == {2, 3}
    assert set(stiff) == {(3, top)}
    assert len([k for k in cache._entries
                if k[0] == "exseq.sobolev._stiffness"]) == 1
