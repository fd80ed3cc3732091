import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SX, matrix_json
from lieschwinger.cli import emit, load_model, main, run
from lieschwinger.errors import ValidationError
from lieschwinger.model import ChainModel
from lieschwinger.sweep import SeriesControls

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
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

        swept = reports(config(0.05), "--t-sweep", "0.01,0.03")
        assert swept == [reports(config(0.05), "--t", "0.01"),
                         reports(config(0.05), "--t", "0.03")]
        assert swept == [reports(config(0.01)), reports(config(0.03))]
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
                 **fields):
    """Kitaev file with one density term coeff c^dag_i c_i per support [i, j],
    i the support's entry in ``sites`` if given, plus any extra ``fields``
    of the kitaev block."""
    sites = sites or [sup[0] for sup in supports]
    perts = [{"support": list(sup),
              "terms": [{"coeff": [coeff, 0.0], "ops": [["cdag", i], ["c", i]]}]}
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
                     [], None, "Interval(k=1, q=1): fermion site 4 is outside sites [1, 2]",
                     id="kitaev-site-past-boundary-support"),
        pytest.param(lambda p: _kitaev_file(p, N=6, supports=[(3, 4)], sites=[6]), [], None,
                     "Interval(k=1, q=3): fermion site 6 is outside sites [3, 4]",
                     id="kitaev-site-on-chain-end"),
        pytest.param(lambda p: _kitaev_file(p, N=6, supports=[(2, 3)], sites=[4]), [], None,
                     "Interval(k=1, q=2): fermion site 4 is outside sites [2, 3]",
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
        assert error["message"] == "perturbation on Interval(k=0, q=3): coefficients must be finite"

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
    """Every non-float field equal, every float within 1e-14 max(1, |x|)."""
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
    else:
        assert type(fresh) is type(golden) and fresh == golden, where


@pytest.mark.parametrize("name", ["anchor_n2", "kitaev_n6"])
def test_report_matches_golden(tmp_path, name):
    """The committed tests/data/<name>_report.json is the report of
    ``lieschwinger --config configs/<name>.json`` at default flags with its
    "timings" removed.  Replace it only with a change meant to move outputs."""
    out = tmp_path / "report.json"
    assert main(["--config", str(CONFIGS / f"{name}.json"), "--report", str(out)]) == 0
    fresh = json.loads(out.read_text())
    del fresh["timings"]
    golden = json.loads((DATA / f"{name}_report.json").read_text())
    _assert_report_matches(fresh, golden)
