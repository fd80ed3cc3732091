import dataclasses
import hashlib
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_ENV, SX, anchor_model, matrix_json
from lieschwinger import sweep as sweep_module
from lieschwinger.cli import emit, load_model, main, run
from lieschwinger.errors import ValidationError
from lieschwinger.intervals import Interval
from lieschwinger.model import ChainModel, random_chain_model
from lieschwinger.sweep import SeriesControls

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
DATA = Path(__file__).resolve().parent / "data"


def chain_spec(N=2, t=0.1, gap=1.0, vnorm=1.0):
    inter = []
    for q in range(1, N):
        inter.append({"support": [q, q + 1], "matrix": matrix_json(vnorm * np.kron(SX, SX))})
    return {
        "version": "1", "N": N, "M": 2,
        "H": matrix_json(np.diag([0.0, gap])),
        "interactions": inter, "t": t, "kbar": 1,
    }


@pytest.fixture
def demo_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(chain_spec()))
    return path


class TestLoadModel:
    def test_valid_file(self, demo_config):
        model = load_model(demo_config)
        assert isinstance(model, ChainModel)
        assert model.N == 2 and model.t == 0.1

    def test_onsite_gap_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(chain_spec(gap=0.5)))
        with pytest.raises(ValidationError, match="gap"):
            load_model(path)

    def test_oversized_interaction_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(chain_spec(vnorm=1.2)))
        with pytest.raises(ValidationError, match="norm"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_model(tmp_path / "absent.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            load_model(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.json"
        spec = chain_spec()
        spec["version"] = "99"
        path.write_text(json.dumps(spec))
        with pytest.raises(ValidationError, match="version"):
            load_model(path)

    def test_kitaev_block(self, tmp_path):
        path = tmp_path / "m.json"
        spec = {
            "version": "1",
            "kitaev": {
                "N": 5, "beta": 0.01, "mu": 0.0, "tau": 1.0, "delta": 1.0,
                "perturbations": [{
                    "support": [3, 3],
                    "terms": [{"coeff": [1.0, 0.0], "ops": [["cdag", 3], ["c", 3]]}],
                }],
            },
        }
        path.write_text(json.dumps(spec))
        from lieschwinger.kitaev import KitaevModel
        model = load_model(path)
        assert isinstance(model, KitaevModel)
        assert model.N == 5 and model.beta == 0.01


def _digest(path):
    """seed_info.sha256 of the chain a run of ``path`` fits."""
    model = load_model(path)
    chain = model if isinstance(model, ChainModel) else model.reduce().at()[0]
    return chain.seed_info["sha256"]


def _keys_reversed(obj):
    if isinstance(obj, dict):
        return {key: _keys_reversed(obj[key]) for key in reversed(list(obj))}
    if isinstance(obj, list):
        return [_keys_reversed(item) for item in obj]
    return obj


class TestDigest:
    # a model file's seed_info.sha256 is the SHA-256 of its parsed content
    # as canonical JSON, the one name a report gives its matrices
    @pytest.mark.parametrize("name", ["anchor_n2", "kitaev_n7"])
    def test_is_the_canonical_json_of_the_parsed_file(self, name):
        path = CONFIGS / f"{name}.json"
        canonical = json.dumps(json.loads(path.read_text()), sort_keys=True, separators=(",", ":"))
        assert _digest(path) == _digest(path) == hashlib.sha256(canonical.encode()).hexdigest()

    @pytest.mark.parametrize("name", ["anchor_n2", "kitaev_n7"])
    def test_survives_another_indent_and_key_order(self, tmp_path, name):
        path, copy = CONFIGS / f"{name}.json", tmp_path / "copy.json"
        copy.write_text(json.dumps(_keys_reversed(json.loads(path.read_text())), indent=7))
        assert copy.read_text() != path.read_text()
        assert _digest(copy) == _digest(path)

    @pytest.mark.parametrize("change", [
        lambda spec: spec.update(t=0.2),
        lambda spec: spec["H"][1][1].__setitem__(0, 1.5),
        lambda spec: spec["interactions"][0]["matrix"][0][0].__setitem__(0, 0.125),
        lambda spec: spec.update(N=4),
    ], ids=["t", "onsite entry", "interaction entry", "N"])
    def test_changes_with_any_one_number(self, tmp_path, change):
        spec = chain_spec(N=3, vnorm=0.5)
        spec["interactions"] = spec["interactions"][1:]  # one interaction, on [2, 3]
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        before.write_text(json.dumps(spec))
        change(spec)
        after.write_text(json.dumps(spec))
        assert _digest(after) != _digest(before)

    @pytest.mark.parametrize("field,value", [("beta", 0.02), ("coeff", 0.25)])
    def test_changes_with_a_kitaev_number(self, tmp_path, field, value):
        (tmp_path / "before").mkdir()
        before = _kitaev_file(tmp_path / "before", N=6)
        after = _kitaev_file(tmp_path, N=6, **{field: value})
        assert _digest(after) != _digest(before)

    def test_reports_name_a_model_without_its_matrices(self, demo_config):
        from_file, _ = run(load_model(demo_config), SeriesControls())
        in_memory, _ = run(random_chain_model(3, 0.01, seed=4), SeriesControls())
        built, _ = run(anchor_model(), SeriesControls())
        for report in (from_file, in_memory, built):
            assert report["version"] == "2"
            assert sorted(report["model"]) == ["M", "N", "energy_offset", "kbar", "seed_info", "t"]
        assert from_file["model"]["seed_info"] == {"sha256": _digest(demo_config)}
        assert in_memory["model"]["seed_info"] == {"generator": "numpy.default_rng(PCG64)",
                                                   "seed": 4}
        assert built["model"]["seed_info"] == {}

    def test_model_file_version_stays_one(self, tmp_path):
        # the report moved to version 2; a model file that says so is rejected
        spec = chain_spec()
        spec["version"] = "2"
        path, out = tmp_path / "m.json", tmp_path / "report.json"
        path.write_text(json.dumps(spec))
        assert main(["--config", str(path), "--report", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["error"]["type"] == "ValidationError" and "version" in report["error"]["message"]
        assert report["version"] == "2"


class TestRun:
    def test_anchor_report(self, demo_config):
        report, code = run(load_model(demo_config), SeriesControls())
        assert code == 0 and report["status"] == "ok"
        assert report["gap_report"]["gap"] == pytest.approx(np.sqrt(1.01) - 0.1, abs=1e-8)
        assert report["oracle"]["spectrum_distance"] <= 1e-9
        assert len(report["steps"]) == 1

    def test_zero_coupling_report(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(chain_spec(t=0.0)))
        report, code = run(load_model(path), SeriesControls())
        assert code == 0
        assert report["gap_report"]["gap"] == pytest.approx(1.0)
        assert report["oracle"]["spectrum_distance"] == pytest.approx(0.0, abs=1e-12)

    def test_failed_run_names_step(self, demo_config):
        import dataclasses
        model = dataclasses.replace(load_model(demo_config), t=0.5)
        report, code = run(model, SeriesControls())
        assert code == 3
        assert report["status"] == "failed"
        assert report["error"]["type"] == "SeriesError"
        assert report["error"]["step"] == [1, 1]


class TestEmit:
    def test_json_round_trip(self, demo_config):
        report, _ = run(load_model(demo_config), SeriesControls())
        text = emit(report, "json")
        parsed = json.loads(text)
        assert parsed == json.loads(emit(parsed, "json"))
        assert parsed["gap_report"]["gap"] == report["gap_report"]["gap"]

    def test_seventeen_digit_floats(self, demo_config):
        report, _ = run(load_model(demo_config), SeriesControls())
        text = emit(report, "json")
        assert '"t": 0.10000000000000001' in text

    def test_csv_step_rows(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(chain_spec(N=5, t=1e-3)))
        report, _ = run(load_model(path), SeriesControls())
        text = emit(report, "csv")
        rows = [line for line in text.splitlines() if line.startswith("step,")]
        assert len(rows) == 10
        assert any(line.startswith("ledger,") for line in text.splitlines())

    def test_unknown_format(self):
        with pytest.raises(ValidationError, match="format"):
            emit({}, "yaml")


class TestMain:
    def test_exit_zero_and_report_file(self, demo_config, tmp_path):
        out = tmp_path / "report.json"
        assert main(["--config", str(demo_config), "--report", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["status"] == "ok"

    def test_small_near_hermitian_interaction_fits(self, tmp_path):
        # a defect of 5e-10 on 0.01 sigma_x sigma_x is within the one
        # Hermiticity rule, which op_norm reads as the model check does
        spec = chain_spec()
        V = 0.01 * np.kron(SX, SX)
        V[0, 3] += 5e-10
        spec["interactions"][0]["matrix"] = matrix_json(V)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "report.json"
        assert main(["--config", str(path), "--report", str(out)]) == 0
        assert json.loads(out.read_text())["status"] == "ok"
        (op,) = load_model(path).interactions.values()
        assert np.array_equal(op.matrix, op.matrix.conj().T)

    def test_validation_exit_code(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(chain_spec(gap=0.5)))
        out = tmp_path / "report.json"
        assert main(["--config", str(path), "--report", str(out)]) == 2
        assert json.loads(out.read_text())["status"] == "failed"

    def test_series_failure_exit_code_and_report(self, demo_config, tmp_path):
        out = tmp_path / "report.json"
        assert main(["--config", str(demo_config), "--t", "0.5",
                     "--report", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["error"]["step"] == [1, 1]

    def test_t_sweep_emits_report_list(self, demo_config, tmp_path):
        out = tmp_path / "report.json"
        assert main(["--config", str(demo_config), "--t-sweep", "1e-4,1e-3,1e-2",
                     "--report", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert isinstance(reports, list) and len(reports) == 3
        assert all(r["status"] == "ok" for r in reports)
        # bounds hold in the certified regime; outside it they are recorded data
        for r in reports[:2]:
            assert all(row["ok"] for row in r["ledger"])

    def test_negative_couplings_in_the_equals_form(self, demo_config, tmp_path):
        # argparse takes "-1e-3" or "-0.001,0.001" after a space for a flag;
        # the documented FLAG=VALUE form passes any negative coupling
        out = tmp_path / "report.json"
        assert main(["--config", str(demo_config), "--t-sweep=-0.001,0.001",
                     "--report", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert [r["status"] for r in reports] == ["ok", "ok"]
        assert [r["controls"]["t"] for r in reports] == [-0.001, 0.001]
        assert main(["--config", str(demo_config), "--t=-1e-3", "--report", str(out)]) == 0
        assert json.loads(out.read_text())["controls"]["t"] == -0.001

    def test_negative_kitaev_couplings_pass_the_doubling_check(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["--config", str(CONFIGS / "kitaev_n6.json"), "--t-sweep=-0.01,0.01",
                     "--report", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert [r["controls"]["t"] for r in reports] == [-0.01, 0.01]
        for report in reports:
            assert report["status"] == "ok" and report["kitaev"]["doubling_ok"] is True

    def test_one_flag_per_series_control_with_its_default(self, capsys):
        # the flags are generated from SeriesControls' fields, in field order
        with pytest.raises(SystemExit):
            main(["--help"])
        lines = capsys.readouterr().out.split("options:", 1)[1].splitlines()
        flags = [line.split()[0] for line in lines if line.strip().startswith("--")]
        fields = dataclasses.fields(SeriesControls)
        names = ["--" + field.name.replace("_", "-") for field in fields]
        assert [flag for flag in flags if flag in names] == names
        text = " ".join(lines)
        for field in fields:
            assert f"default {field.default}" in text, field.name

    def test_determinism_modulo_timings(self, demo_config, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["--config", str(demo_config), "--seed", "5", "--report", str(out1)])
        main(["--config", str(demo_config), "--seed", "5", "--report", str(out2)])
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a["timings"] = b["timings"] = None
        assert emit(a, "json") == emit(b, "json")

    def test_csv_output(self, demo_config, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["--config", str(demo_config), "--format", "csv",
                     "--report", str(out)]) == 0
        assert out.read_text().startswith("kind,")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_decay_bound_gives_a_finite_report(self, tmp_path, fmt):
        # an interaction on [1, 6] already block-diagonal (1 at |111111>, 0
        # elsewhere) at t = 1e300: the sweep converges, and the ledger bound
        # 8 |t|^(4/3) / 36 of r = 5 lies past the float range
        V = np.zeros((64, 64))
        V[63, 63] = 1.0
        spec = {**chain_spec(N=6, t=1e300),
                "interactions": [{"support": [1, 6], "matrix": matrix_json(V)}], "kbar": 5}
        path, out = tmp_path / "m.json", tmp_path / f"report.{fmt}"
        path.write_text(json.dumps(spec))
        assert main(["--config", str(path), "--format", fmt, "--report", str(out)]) == 0
        if fmt == "csv":
            ledger = [line.split(",") for line in out.read_text().splitlines()
                      if line.startswith("ledger")]
            assert [(row[9], float(row[12]), row[13]) for row in ledger] == [
                ("5", sys.float_info.max, "true")]
            return
        report = json.loads(out.read_text())
        assert report["status"] == "ok"
        assert report["ledger"] == [{"r": 5, "interval_q": 1, "norm": 1, "ok": True,
                                     "bound": sys.float_info.max}]

    def test_kitaev_config_runs(self, tmp_path):
        path = tmp_path / "m.json"
        spec = {
            "version": "1",
            "kitaev": {
                "N": 5, "beta": 0.01,
                "perturbations": [{
                    "support": [3, 4],
                    "terms": [
                        {"coeff": [0.4, 0.0], "ops": [["cdag", 3], ["c", 3]]},
                        {"coeff": [0.3, 0.0], "ops": [["cdag", 3], ["c", 4]]},
                        {"coeff": [0.3, 0.0], "ops": [["cdag", 4], ["c", 3]]},
                    ],
                }],
            },
        }
        path.write_text(json.dumps(spec))
        out = tmp_path / "report.json"
        assert main(["--config", str(path), "--report", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["kitaev"]["doubling_ok"] is True
        assert report["gap_report"]["gap"] >= 1.0
        assert report["gap_report"]["ground_energy"] == pytest.approx(-4.0, abs=0.1)

    def test_kitaev_t_sweep_equals_separate_runs(self, tmp_path):
        # the reduction is built once per file; each coupling must still
        # report exactly what a run at that coupling alone reports, also
        # a run of a file whose own beta is that coupling
        def config(beta):
            return _kitaev_file(tmp_path, supports=[(3, 4), (1, 2)], beta=beta)

        def reports(path, *flags):
            out = tmp_path / "report.json"
            assert main(["--config", str(path), "--report", str(out), *flags]) == 0
            found = json.loads(out.read_text())
            for rep in found if isinstance(found, list) else [found]:
                del rep["timings"]
            return found

        def file_digest_left_out(found):
            # files that differ in beta differ in the digest that names them
            for rep in found:
                del rep["model"]["seed_info"]["sha256"]
            return found

        swept = reports(config(0.05), "--t-sweep", "0.01,0.03")
        assert swept == [reports(config(0.05), "--t", "0.01"),
                         reports(config(0.05), "--t", "0.03")]
        assert file_digest_left_out(swept) == file_digest_left_out(
            [reports(config(0.01)), reports(config(0.03))])
        assert all("boundary_splitting" in rep["kitaev"] for rep in swept)


def _list_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([chain_spec()]))
    return path


def _no_support_file(tmp_path):
    spec = chain_spec()
    del spec["interactions"][0]["support"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(spec))
    return path


def _bad_n_file(tmp_path):
    spec = chain_spec()
    spec["N"] = "two"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(spec))
    return path


def _huge_integer_file(tmp_path):
    # valid JSON that the json module refuses: N has more than 4300 digits
    path = tmp_path / "m.json"
    path.write_text(json.dumps(chain_spec()).replace('"N": 2', '"N": ' + "1" * 5000))
    return path


def _not_utf8_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b"\xff\xfe{}")
    return path


def _raw_file(tmp_path, spec):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(spec))
    return path


def _anchor_file(tmp_path, **fields):
    """configs/anchor_n2.json with top-level ``fields`` replaced; ``support``
    replaces the support of its one interaction."""
    spec = json.loads((CONFIGS / "anchor_n2.json").read_text())
    if "support" in fields:
        spec["interactions"][0]["support"] = fields.pop("support")
    spec.update(fields)
    path = tmp_path / "anchor.json"
    path.write_text(json.dumps(spec))
    return path


def _duplicate_support_file(tmp_path):
    """configs/anchor_n2.json with its one interaction given twice."""
    spec = json.loads((CONFIGS / "anchor_n2.json").read_text())
    spec["interactions"] *= 2
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(spec))
    return path


def _kitaev_file(tmp_path, N=5, supports=((3, 3),), beta=0.01, coeff=0.5, sites=None,
                 ops=None, **fields):
    """Kitaev file with one density term coeff c^dag_i c_i per support [i, j],
    i the support's entry in ``sites`` if given, or with ``ops`` in place of
    each term's factors, plus any extra ``fields`` of the kitaev block."""
    sites = sites or [sup[0] for sup in supports]
    perts = [{"support": list(sup),
              "terms": [{"coeff": [coeff, 0.0], "ops": ops or [["cdag", i], ["c", i]]}]}
             for sup, i in zip(supports, sites)]
    path = tmp_path / f"k{beta}.json"
    path.write_text(json.dumps({"version": "1",
                                "kitaev": {"N": N, "beta": beta, "perturbations": perts,
                                           **fields}}))
    return path


class _ArrayMemoryError(MemoryError):
    """Like numpy's own: a private MemoryError subclass with a message."""


class TestBadInputs:
    """Every bad value ends in exit 2 with a parseable report, never a traceback."""

    @pytest.mark.parametrize("make_config,flags,bad_index,names", [
        pytest.param(None, ["--t", "nan"], None, None, id="t-nan"),
        pytest.param(None, ["--t", "inf"], None, None, id="t-inf"),
        pytest.param(None, ["--t-sweep", "0.1,nan"], 1, None, id="t-sweep-nan"),
        pytest.param(None, ["--jmax", "0"], None, None, id="jmax-0"),
        pytest.param(None, ["--tol-od", "-1"], None, None, id="tol-od-negative"),
        pytest.param(None, ["--t-sweep", "0.1,abc"], None, None, id="t-sweep-not-a-number"),
        pytest.param(None, ["--t-sweep", ","], None, None, id="t-sweep-empty"),
        pytest.param(_list_file, [], None, None, id="top-level-list"),
        pytest.param(_no_support_file, [], None, None, id="no-support"),
        pytest.param(_bad_n_file, [], None, None, id="N-not-integer"),
        pytest.param(_huge_integer_file, [], None, "JSON", id="N-5000-digits"),
        pytest.param(_not_utf8_file, [], None, "JSON", id="not-utf8"),
        pytest.param(lambda p: p, [], None, "JSON", id="config-is-a-directory"),
        pytest.param(lambda p: _kitaev_file(p, N=-1), [], None, "N=-1", id="kitaev-N-negative"),
        pytest.param(lambda p: _kitaev_file(p, N=0), [], None, "N=0", id="kitaev-N-zero"),
        # H0 is the tau = delta = 1 Hamiltonian; other values must not pass silently
        pytest.param(lambda p: _kitaev_file(p, tau=2.0, delta=2.0), [], None, "tau=2.0",
                     id="kitaev-tau-delta-two"),
        # a file whose reduction fails fails once, like a load failure
        pytest.param(lambda p: _kitaev_file(p, supports=[(1, 2)]), ["--t-sweep", "0.01,0.02"],
                     None, "bulk", id="kitaev-no-bulk-term"),
        # numbers the json module reads but a float cannot hold
        pytest.param(lambda p: _kitaev_file(p, coeff=float("nan")), [], None, "perturbation on",
                     id="kitaev-coeff-nan"),
        pytest.param(lambda p: _kitaev_file(p, coeff=10 ** 400), [], None, "perturbation on",
                     id="kitaev-coeff-integer-past-float"),
        # every term site must lie in its perturbation's declared support
        pytest.param(lambda p: _kitaev_file(p, N=6, supports=[(3, 3), (1, 2)], sites=[3, 4]),
                     [], None, "perturbation on [1, 2]: fermion site 4 is outside sites [1, 2]",
                     id="kitaev-site-past-boundary-support"),
        pytest.param(lambda p: _kitaev_file(p, N=6, supports=[(3, 4)], sites=[6]), [], None,
                     "perturbation on [3, 4]: fermion site 6 is outside sites [3, 4]",
                     id="kitaev-site-on-chain-end"),
        pytest.param(lambda p: _kitaev_file(p, N=6, supports=[(2, 3)], sites=[4]), [], None,
                     "perturbation on [2, 3]: fermion site 4 is outside sites [2, 3]",
                     id="kitaev-site-past-bulk-support"),
        # a repeated support is rejected, never summed or overwritten
        pytest.param(_duplicate_support_file, [], None,
                     "interaction support [1, 2] appears twice", id="duplicate-support"),
        pytest.param(lambda p: _anchor_file(p, support=[1, 1]), [], None,
                     "must span at least two sites", id="one-site-interaction"),
        pytest.param(lambda p: _anchor_file(p, t=10 ** 400), [], None, "'t'",
                     id="t-integer-past-float"),
        pytest.param(lambda p: _anchor_file(p, H=[[[10 ** 400, 0], [0, 0]], [[0, 0], [1, 0]]]),
                     [], None, "on-site", id="H-integer-past-float"),
        pytest.param(lambda p: _anchor_file(p, N=1), [], None, "need at least 2 sites",
                     id="N-one"),
        pytest.param(lambda p: _anchor_file(p, M=1), [], None, "need on-site dimension >= 2",
                     id="M-one"),
        pytest.param(lambda p: _anchor_file(p, M=3), [], None,
                     "on-site matrix shape (2, 2) does not match M=3", id="H-size-not-M"),
        pytest.param(lambda p: _anchor_file(p, kbar=0), [], None,
                     "interaction support [1, 2] exceeds max range kbar=0",
                     id="kbar-below-interaction-range"),
        pytest.param(lambda p: _anchor_file(p, H=[[1, 0], [0, 1]]), [], None,
                     "on-site matrix: matrix entries must be [re, im] pairs", id="H-not-pairs"),
        pytest.param(lambda p: _anchor_file(p, H=[[[0, 0], [0, 0]]]), [], None,
                     "on-site matrix: matrix must be square", id="H-not-square"),
        pytest.param(lambda p: _anchor_file(p, support=[1, 2, 3]), [], None,
                     "'support' must be [first_site, last_site]", id="support-three-sites"),
        pytest.param(lambda p: _anchor_file(p, interactions=[5]), [], None,
                     "interaction must be a JSON object", id="interaction-not-object"),
        pytest.param(lambda p: _raw_file(p, {"version": "1", "kitaev": 5}), [], None,
                     "kitaev block must be a JSON object", id="kitaev-not-object"),
        pytest.param(lambda p: _kitaev_file(p, ops=[["c", 3]]), [], None,
                     "perturbation on [3, 3]: perturbation monomials must have even fermion degree",
                     id="kitaev-odd-monomial"),
        pytest.param(lambda p: _kitaev_file(p, ops=[["x", 3], ["c", 3]]), [], None,
                     "perturbation on [3, 3]: unknown fermion factor kind 'x'",
                     id="kitaev-unknown-factor"),
        pytest.param(lambda p: _kitaev_file(p, supports=[(5, 6)]), [], None,
                     "perturbation support [5, 6] does not fit 5 sites",
                     id="kitaev-support-past-chain-end"),
        # a fermion site is an integer: never a float, a string or a bool
        pytest.param(lambda p: _kitaev_file(p, ops=[["cdag", 3.0], ["c", 3]]), [], None,
                     "perturbation on [3, 3]: fermion site 3.0 must be an integer",
                     id="kitaev-site-float"),
        pytest.param(lambda p: _kitaev_file(p, ops=[["cdag", "3"], ["c", 3]]), [], None,
                     "perturbation on [3, 3]: fermion site '3' must be an integer",
                     id="kitaev-site-string"),
        pytest.param(lambda p: _kitaev_file(p, supports=[(1, 2)], ops=[["cdag", True], ["c", 1]]),
                     [], None, "perturbation on [1, 2]: fermion site True must be an integer",
                     id="kitaev-site-bool"),
        # a matrix entry and a coefficient are two numbers: no part is a bool
        pytest.param(lambda p: _anchor_file(p, H=[[[0, False], [0, 0]], [[0, 0], [1, 0]]]), [],
                     None, "on-site matrix: matrix entries must be [re, im] pairs",
                     id="H-entry-bool"),
        pytest.param(lambda p: _kitaev_file(p, coeff=True), [], None,
                     "perturbation on [3, 3]: coefficient [True, 0.0] must be two numbers",
                     id="kitaev-coeff-bool"),
    ])
    def test_exit_two_with_report(self, demo_config, tmp_path, make_config, flags, bad_index,
                                  names):
        config = demo_config if make_config is None else make_config(tmp_path)
        out = tmp_path / "report.json"
        assert main(["--config", str(config), "--report", str(out)] + flags) == 2
        report = json.loads(out.read_text())
        if bad_index is not None:
            # the valid couplings of a sweep keep their reports
            assert [r["status"] for r in report] == ["ok", "failed"]
            report = report[bad_index]
        assert report["status"] == "failed"
        assert report["error"]["type"] == "ValidationError"
        assert report["error"]["exit_code"] == 2
        # a rejected coupling is echoed as null: reports never hold NaN or infinity
        assert report["controls"] in (None, {"t": None})
        if names is not None:
            assert names in report["error"]["message"]

    @pytest.mark.parametrize("coeff", [float("inf"), float("-inf")])
    def test_infinite_kitaev_coefficient_is_rejected_before_any_product(self, tmp_path, coeff):
        # inf times the zero entries of a monomial would warn "invalid value"
        out = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--config", str(_kitaev_file(tmp_path, coeff=coeff)),
                         "--report", str(out)])
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        error = json.loads(out.read_text())["error"]
        assert error["message"] == "perturbation on [3, 3]: coefficients must be finite"

    def test_oversize_chain_fails_before_sweep(self, tmp_path):
        # 2**13 = 8192 exceeds the dense guard; the sweep would reach that
        # dimension before certification could reject it
        path = tmp_path / "big.json"
        path.write_text(json.dumps(chain_spec(N=13)))
        out = tmp_path / "report.json"
        started = time.perf_counter()
        assert main(["--config", str(path), "--report", str(out)]) == 2
        assert time.perf_counter() - started < 1.0
        report = json.loads(out.read_text())
        assert report["status"] == "failed"
        assert report["error"]["type"] == "DimensionError"
        assert "8192" in report["error"]["message"]
        assert report["steps"] == []

    def test_kitaev_chain_past_the_guard_fails_at_load(self, tmp_path):
        # 2**13 fermion states exceed the dense guard that the per-coupling
        # checks would reach
        out = tmp_path / "report.json"
        config = _kitaev_file(tmp_path, N=13, supports=[(3, 4)])
        assert main(["--config", str(config), "--report", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["status"] == "failed" and report["error"]["type"] == "DimensionError"
        assert "8192" in report["error"]["message"]

    @pytest.mark.parametrize("make_config,error_type", [
        pytest.param(lambda p: _anchor_file(p, N=20000), "DimensionError", id="chain"),
        pytest.param(lambda p: _kitaev_file(p, N=20000), "DimensionError", id="kitaev"),
        pytest.param(lambda p: _anchor_file(p, N=20000, support=[1, 20000], kbar=None),
                     "ValidationError", id="interaction-support"),
    ])
    def test_far_oversize_model_fails_with_report(self, tmp_path, make_config, error_type):
        # 2**20000 has over 6000 digits: the guards must not form it, nor
        # format it into a message.  (Kept at N=20000: at N >= 1e9 a
        # regression would exhaust memory instead of failing.)
        out = tmp_path / "report.json"
        assert main(["--config", str(make_config(tmp_path)), "--report", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["status"] == "failed"
        assert report["error"]["type"] == error_type
        assert "2**20000" in report["error"]["message"]

    @pytest.mark.parametrize("target,make_config,error,message", [
        pytest.param("lieschwinger.estimator.sweep", lambda p: CONFIGS / "anchor_n2.json",
                     _ArrayMemoryError("Unable to allocate 8.00 GiB"),
                     "Unable to allocate 8.00 GiB", id="fit"),
        pytest.param("lieschwinger.kitaev.build_kitaev_model", _kitaev_file, MemoryError(),
                     "out of memory", id="kitaev-load"),
    ])
    def test_memory_error_exits_two_with_report(self, tmp_path, monkeypatch, target,
                                                make_config, error, message):
        # a model the host cannot hold is rejected as one past the dense guard is
        def out_of_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr(target, out_of_memory)
        out = tmp_path / "report.json"
        assert main(["--config", str(make_config(tmp_path)), "--report", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["status"] == "failed"
        assert report["error"] == {"type": "MemoryError", "message": message,
                                   "step": None, "exit_code": 2}
        assert report["steps"] == [] and report["gap_report"] is None

    def test_memory_error_mid_sweep_keeps_the_steps_before_it(self, tmp_path, monkeypatch):
        # a MemoryError at the third step of a 5-site chain: the report lists
        # the two steps the sweep completed before it
        series = sweep_module.generator_series

        def out_of_memory_at_third_step(G, A, vac, V, t, controls, step=None, rest=None):
            if step == Interval(1, 3):
                raise _ArrayMemoryError("Unable to allocate 8.00 GiB")
            return series(G, A, vac, V, t, controls, step, rest)

        monkeypatch.setattr(sweep_module, "generator_series", out_of_memory_at_third_step)
        out = tmp_path / "report.json"
        assert main(["--config", str(CONFIGS / "chain_n5_m3_k2.json"), "--report", str(out)]) == 2
        report = json.loads(out.read_text())
        assert report["status"] == "failed" and report["error"]["type"] == "MemoryError"
        assert [[row["k"], row["q"]] for row in report["steps"]] == [[1, 1], [1, 2]]

    @pytest.mark.parametrize("flags,code,error_type,error_step,steps", [
        pytest.param([], 3, "SeriesError", [1, 1], 0, id="file-coupling"),
        pytest.param(["--t", "0"], 2, "CertificationError", None, 10, id="zero-coupling"),
    ])
    def test_tolerance_below_rounding_fails_a_step_check(self, tmp_path, flags, code,
                                                         error_type, error_step, steps):
        # the on-site terms of a vacuum that is not a basis vector leak at
        # rounding level (3.3e-16 on the first interval): a --tol-od below it
        # fails the step's residual check, or at t = 0 the certificate of K,
        # never the sweep-order check (OrderError, exit 1)
        out = tmp_path / "report.json"
        assert main(["--config", str(CONFIGS / "nonbasis_n5_m3_k2.json"), "--tol-od", "1e-17",
                     *flags, "--report", str(out)]) == code
        report = json.loads(out.read_text())
        assert report["error"]["type"] == error_type and report["error"]["step"] == error_step
        assert len(report["steps"]) == steps

    def test_failed_cholesky_factor_exits_four_with_report(self, demo_config, tmp_path,
                                                            monkeypatch):
        # a resolvent whose Cholesky factor fails, as a gap at rounding level
        # can make it, ends in the gap exit with a report, not a traceback
        def not_positive_definite(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
        out = tmp_path / "report.json"
        assert main(["--config", str(demo_config), "--report", str(out)]) == 4
        report = json.loads(out.read_text())
        assert report["status"] == "failed"
        assert report["error"]["type"] == "GapError"
        assert report["error"]["step"] == [1, 1] and report["error"]["exit_code"] == 4
        assert report["steps"] == []

    @pytest.mark.parametrize("make_target", [
        pytest.param(lambda p: p / "missing" / "r.json", id="missing-directory"),
        pytest.param(lambda p: p, id="directory"),
    ])
    def test_unwritable_report_path(self, demo_config, tmp_path, capsys, make_target):
        target = make_target(tmp_path)
        assert main(["--config", str(demo_config), "--report", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "cannot write report" in captured.err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("make_config,flags", [
        pytest.param(_list_file, [], id="load-failure"),
        pytest.param(None, ["--t", "nan"], id="coupling-failure"),
    ])
    def test_failure_report_as_csv(self, demo_config, tmp_path, make_config, flags):
        config = demo_config if make_config is None else make_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["--config", str(config), "--format", "csv",
                     "--report", str(out)] + flags) == 2
        header = "kind,t,k,q,E,gap,series_order,od_residual,s_norm,r,interval_q,norm,bound,ok"
        assert out.read_text() == header + "\n"

    def test_malformed_file_names_field(self, tmp_path):
        with pytest.raises(ValidationError, match="'support'"):
            load_model(_no_support_file(tmp_path))
        with pytest.raises(ValidationError, match="'N'"):
            load_model(_bad_n_file(tmp_path))
        with pytest.raises(ValidationError, match="JSON object"):
            load_model(_list_file(tmp_path))
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"version": "1", "kitaev": {
            "N": 5, "beta": 0.01,
            "perturbations": [{"support": [3, 3], "terms": [{"coeff": [1.0, 0.0]}]}],
        }}))
        with pytest.raises(ValidationError, match="'terms'"):
            load_model(path)


FUZZ_COUPLINGS = st.sampled_from([0.0, 0.01, -0.05, 0.3, 2.0, 1e20, -1e20, 1e300, -1e300, 1e308,
                                   float("nan"), float("inf"), float("-inf")])
FUZZ_FLAGS = st.one_of(
    st.just([]),
    FUZZ_COUPLINGS.map(lambda t: [f"--t={t!r}"]),
    st.lists(FUZZ_COUPLINGS, min_size=1, max_size=3).map(
        lambda ts: ["--t-sweep=" + ",".join(repr(t) for t in ts)]),
)


@settings(max_examples=30, deadline=None)
@example(kitaev=False, coeff=0.5, flags=["--t=1e+20"])
@example(kitaev=True, coeff=float("nan"), flags=[])
@given(kitaev=st.booleans(),
       coeff=st.sampled_from([0.5, -1.0, 1e20, 1e308, -1e308, float("nan"), float("inf"),
                              10 ** 400]),
       flags=FUZZ_FLAGS)
def test_every_input_ends_in_a_documented_exit_code_with_a_report(tmp_path_factory, kitaev,
                                                                   coeff, flags):
    # any coupling on configs/anchor_n2.json, and any coupling and
    # coefficient on a small Kitaev file: exit 0, 2, 3 or 4, never an
    # exception out of main, and always a report
    tmp = tmp_path_factory.mktemp("fuzz")
    config = _kitaev_file(tmp, coeff=coeff) if kitaev else CONFIGS / "anchor_n2.json"
    out = tmp / "report.json"
    code = main(["--config", str(config), "--report", str(out)] + flags)
    assert code in (0, 2, 3, 4)
    reports = json.loads(out.read_text())
    codes = [rep["error"]["exit_code"] for rep in (reports if isinstance(reports, list)
                                                    else [reports]) if rep["error"]]
    assert code == (codes[0] if codes else 0)


def _assert_report_matches(fresh, golden, where="report"):
    """Every non-float field equal, every float within 1e-14 max(1, |x|),
    and a float x with |x| < 1e-12 also at most 10 |x| + 1e-16 in size, so
    that a near-zero residual cannot grow by orders of magnitude."""
    if isinstance(golden, dict):
        assert isinstance(fresh, dict) and sorted(fresh) == sorted(golden), where
        for key in golden:
            _assert_report_matches(fresh[key], golden[key], f"{where}.{key}")
    elif isinstance(golden, list):
        assert isinstance(fresh, list) and len(fresh) == len(golden), where
        for i, (f, g) in enumerate(zip(fresh, golden)):
            _assert_report_matches(f, g, f"{where}[{i}]")
    elif not isinstance(golden, bool) and (isinstance(golden, float) or isinstance(fresh, float)):
        # a float that prints as an integer ("2") parses back as int
        assert isinstance(fresh, (int, float)) and not isinstance(fresh, bool), where
        assert abs(fresh - golden) <= 1e-14 * max(1.0, abs(golden)), where
        if abs(golden) < 1e-12:
            assert abs(fresh) <= 10 * abs(golden) + 1e-16, where
    else:
        assert type(fresh) is type(golden) and fresh == golden, where


# (name, flags): the report of ``lieschwinger --config configs/<name>.json``
# with these flags, with "timings" removed, is tests/data/<name>_report.json,
# or <name>_report.csv under --format csv.  Replace a golden report only with
# a change meant to move outputs, by running tests/regenerate_golden.py.
GOLDEN = (
    ("anchor_n2", ()),
    ("kitaev_n6", ()),
    ("chain_n7_m2_k1", ()),  # random_chain_model(7, 0.01, 2, 1, seed=0)
    ("chain_n8_m2_k2", ()),  # random_chain_model(8, 0.05, 2, 2, seed=0)
    ("chain_n5_m3_k2", ()),  # random_chain_model(5, 0.05, 3, 2, seed=0)
    ("nonbasis_n5_m3_k2", ()),  # non_basis_vacuum_model(5, 3, 2, 0.03, 1): a complex vacuum
    # range-2 bulk term of norm 3 (norm_scale 3), a hopping term and a boundary density
    ("kitaev_n7", ("--t-sweep", "0.005,0.01,0.02")),
    ("tfim_n8", ()),  # ising_chain_model(8, 0.2): the transverse-field Ising chain
    # quadratic_kitaev_block(8, 0.05, seed=8): hopping, pairing and density terms
    # on bonds [2, 3]..[6, 7] and [1, 2], none on site 8 (an exact zero mode)
    ("kitaev_quad_n8", ()),
    # a range-2 bulk term of norm 3 on sites 3-5, a hopping term on 5-6 and a
    # boundary term on sites 6-7 alone: gamma_A,1 commutes, so the ground pair
    # stays exactly degenerate
    ("kitaev_right_n7", ("--t-sweep", "0.01,0.04")),
    # the same with a boundary term on sites 1-2 as well: no zero-mode symmetry
    ("kitaev_ends_n7", ("--t-sweep", "0.01,0.04")),
    ("chain_n7_m2_k1", ("--format", "csv")),
    # random_chain_model(9, 0.01, 2, 1, seed=0): its last step (D = 512) reports
    # the bound from its subintervals' rows, its last ledger row a Frobenius norm
    ("chain_n9_m2_k1", ()),
)


def golden_path(name, flags):
    return DATA / f"{name}_report.{'csv' if 'csv' in flags else 'json'}"


def _csv_cell(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def read_report(path):
    """A report file as data: JSON with any "timings" removed from every
    report, or CSV as rows of cells, each an int, a float or a string."""
    text = Path(path).read_text()
    if str(path).endswith(".csv"):
        return [[_csv_cell(cell) for cell in line.split(",")] for line in text.splitlines()]
    report = json.loads(text)
    for rep in report if isinstance(report, list) else [report]:
        rep.pop("timings", None)
    return report


@pytest.mark.parametrize("name,flags", GOLDEN,
                         ids=[name + ("-csv" if "csv" in flags else "") for name, flags in GOLDEN])
def test_report_matches_golden(tmp_path, name, flags):
    golden = golden_path(name, flags)
    out = tmp_path / golden.name
    assert main(["--config", str(CONFIGS / f"{name}.json"), *flags, "--report", str(out)]) == 0
    _assert_report_matches(read_report(out), read_report(golden), name)


def test_json_goldens_are_small():
    # a report carries what the run computed, not the model's matrices
    sizes = {path.name: path.stat().st_size for path in
             (golden_path(name, flags) for name, flags in GOLDEN) if path.suffix == ".json"}
    assert max(sizes.values()) < 20_000, sizes


def test_ci_job_env_is_golden_env():
    # the CI job env repeats GOLDEN_ENV, so the console-script runs there
    # meet the settings the golden reports were generated under
    lines = (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines()
    assert lines.count("    env:") == 1
    env = {}
    for line in lines[lines.index("    env:") + 1:]:
        if not line.strip() or line.strip().startswith("#"):
            continue
        if not line.startswith("      "):
            break
        key, value = line.strip().split(":", 1)
        env[key] = value.strip().strip("\"'")
    assert env == GOLDEN_ENV
