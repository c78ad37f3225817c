import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from bfclab import approxdeg as A
from bfclab import functions as F
from bfclab import measures as M
from bfclab import verify as V
from bfclab.cli import main


def check_status(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert matches, f"no check named {name}"
    return matches[0].status


# -- block-sensitivity chain ---------------------------------------------------

def test_chain_rejects_constant_outer():
    with pytest.raises(ValueError, match="non-constant"):
        V.verify_bs_chain(F.PartialFn.total(2, 0), F.and_n(2))


def test_chain_rejects_oversized_composition():
    with pytest.raises(Exception):
        V.verify_bs_chain(F.or_n(4), F.and_n(4), max_arity=12)


def test_chain_parts_for_or3():
    parts = V.bs_chain_parts(F.or_n(3))
    assert parts.base_input == 0
    assert parts.blocks == (1, 2, 4)
    assert parts.f_prime == F.pror(3)
    assert parts.f_dprime == F.pror(3)
    for sel in parts.selectors:
        assert sel == F.PartialFn.total(1, 0b10)


def test_chain_passes_for_xor_and_maj_outers():
    for f, g in [
        (F.xor_n(2), F.xor_n(2)),
        (F.xor_n(2), F.and_n(2)),
        (F.maj_n(3), F.and_n(2)),
        (F.maj_n(3), F.xor_n(2)),
    ]:
        report = V.verify_bs_chain(f, g)
        assert not report.failed, report.to_text()


def test_chain_first_link_genuinely_fails_for_or3():
    # the unbounded approximation of the total composition may leave [0, 1],
    # so its degree can drop below the bounded degree of the embedded
    # promise function; this pins the verified counterexample
    report = V.verify_bs_chain(F.or_n(3), F.and_n(2))
    values = {c.name: c.values for c in report.checks}
    assert check_status(report, "chain-outer-vs-embedded") == "fail"
    assert values["chain-outer-vs-embedded"] == {
        "adeg_fg": 2,
        "bdeg_f_prime_g": 3,
    }
    for name in (
        "rewrite-identity",
        "chain-embedded-vs-restricted",
        "chain-restricted-equals-pror-form",
        "chain-selectors-dominate-inner",
    ):
        assert check_status(report, name) == "pass"


def test_chain_decides_each_bounded_function_once(monkeypatch):
    # or:3's blocks cover every variable, so f''∘g is f'∘g and is decided
    # once; maj:3's leave one variable fixed, so its f''∘g is decided too
    scanned = []
    bdeg = A.bdeg

    def recording_bdeg(f, *args, **kwargs):
        scanned.append(f)
        return bdeg(f, *args, **kwargs)

    monkeypatch.setattr(A, "bdeg", recording_bdeg)
    g = F.and_n(2)
    for f, covered in ((F.or_n(3), True), (F.maj_n(3), False)):
        scanned.clear()
        V.verify_bs_chain(f, g)
        parts = V.bs_chain_parts(f)
        f_dprime_g = F.compose(parts.f_dprime, [g] * parts.f_dprime.arity)
        assert scanned[0] == F.compose(parts.f_prime, [g] * f.arity)
        assert (scanned[0] == f_dprime_g) == covered
        assert f_dprime_g in scanned
        assert len(set(scanned)) == len(scanned)


# -- promise-OR composition ------------------------------------------------------

def test_pror_suite_single_inner_collapse():
    ident = F.PartialFn.total(1, 0b10)
    report = V.verify_pror([ident], ["id"])
    assert check_status(report, "single-inner-collapse") == "pass"
    assert not report.failed


def test_pror_suite_mixed_inners():
    report = V.verify_pror([F.and_n(2), F.xor_n(2)], ["and2", "xor2"])
    assert not report.failed
    rec = [c for c in report.checks if c.status == "recorded"]
    assert rec and "ratio_to_sqrt_sum_sq" in rec[0].values


def test_pror_suite_flags_lcm_precondition():
    # bounded degrees 1 and 2 give squares 1 and 4: lcm equals the max
    report = V.verify_pror([F.and_n(2), F.xor_n(2)])
    rec = next(c for c in report.checks if c.status == "recorded")
    assert rec.values["lcm_precondition_exceeded"] == 0
    # degrees 2 and 3 give squares 4 and 9: lcm 36 exceeds the max
    report = V.verify_pror([F.xor_n(2), F.xor_n(3)])
    rec = next(c for c in report.checks if c.status == "recorded")
    assert rec.values["lcm_precondition_exceeded"] == 1


def test_pror_suite_rejects_constant_inner():
    with pytest.raises(ValueError):
        V.verify_pror([F.PartialFn.total(2, 0)])


def test_pror_identity_inners_reduce_to_plain_promise_or():
    ident = F.PartialFn.total(1, 0b10)
    for n in (2, 3, 4):
        assert F.compose(F.pror(n), [ident] * n) == F.pror(n)
        report = V.verify_pror([ident] * n)
        rec = next(c for c in report.checks if c.status == "recorded")
        assert rec.values["bdeg_composition"] == A.bdeg(F.pror(n))


# -- symmetric suite -------------------------------------------------------------

def test_symmetric_suite_small():
    report = V.verify_symmetric(n_max=5)
    assert not report.failed
    band = next(c for c in report.checks if c.name == "flip-distance-band")
    assert band.values["functions"] == sum(
        2 ** (n + 1) - 2 for n in range(1, 6)
    )
    assert 0.2 <= band.values["min_ratio"] <= band.values["max_ratio"] <= 3.0


def test_junta_example_is_strong_and_bounded_below():
    spec = V.example_junta_spec()
    assert spec.is_strongly_symmetric()
    f = F.from_junta_spec(spec)
    # the junta-0 restriction is the parity of the remaining four variables
    sub = f.restrict({0: 0})
    assert sub == F.xor_n(4)
    assert A.adeg(f) >= A.adeg(sub)


# -- walks and simulation ---------------------------------------------------------

def test_walks_suite_passes_and_replays():
    a = V.verify_walks(seed=3, walks_per_cell=5000, trace_samples=5000,
                       marginal_bits=100_000)
    assert not a.failed, a.to_text()
    b = V.verify_walks(seed=3, walks_per_cell=5000, trace_samples=5000,
                       marginal_bits=100_000)
    assert a.to_text() == b.to_text()
    assert a.to_json() == b.to_json()


def test_exact_trace_distribution_sums_to_one():
    probs, leftover = V.exact_conditional_trace_distribution(0.2, 2, 12)
    assert leftover >= -1e-12
    assert sum(probs.values()) + leftover == pytest.approx(1.0, abs=1e-9)
    assert probs[(1, 1)] > 0  # the straight run up is the most likely trace


def test_simulate_suite_zero_trials_is_empty_pass():
    report = V.simulate_suite(F.or_n(2), 16, trials=0, seed=0)
    assert not report.failed
    assert report.checks[0].name == "empty-run"


def test_simulate_suite_small_run():
    report = V.simulate_suite(F.or_n(2), 16, trials=40, seed=5)
    assert not report.failed, report.to_text()
    names = {c.name for c in report.checks}
    assert "success-rate input=01" in names
    assert "query-identity input=11" in names


def test_sink_suite_reports_degree():
    report, poly = V.sink_poly_suite(4)
    assert not report.failed
    assert poly.degree == 3


# -- CLI -------------------------------------------------------------------------

def test_cli_measures_csv(capsys):
    code = main(["measures", "--zoo", "or:3,xor:3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "name,n,s,bs,fbs,deg,D"
    assert "or:3,3,3,3" in out


def test_cli_measures_empty_input(capsys):
    code = main(["measures", "--zoo", ""])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "name,n,s,bs,fbs,deg,D"


def test_cli_measures_json_and_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    F.save_function(F.and_n(2), path, name="and2")
    code = main(["measures", "--file", str(path), "--out", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["s"] == 2


def test_cli_bad_zoo_spec(capsys):
    assert main(["measures", "--zoo", "nosuch:3"]) == 2
    assert main(["simulate", "--f", "or:2", "--t", "10"]) == 2


def test_cli_bad_function_files_are_usage_errors(tmp_path, capsys):
    # a spec without its arity, and a document that is not an object
    no_arity = tmp_path / "no_arity.json"
    no_arity.write_text(json.dumps({"kind": "table", "table": "0e"}))
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([1, 2, 3]))
    for path in (str(no_arity), str(listed)):
        assert main(["simulate", "--f", path, "--t", "16"]) == 2
        assert main(["verify-bs-chain", "--f", path, "--g", "and:2"]) == 2
        assert main(["verify-bs-chain", "--f", "maj:3", "--g", path]) == 2
        assert main(["measures", "--file", path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error: cannot load") == 8


def test_cli_out_accepts_only_formats_the_command_prints(capsys):
    # measures prints csv or json, the other subcommands text or json
    for argv in (["measures", "--zoo", "or:2", "--out", "text"],
                 ["sink-poly", "--k", "3", "--out", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_resource_bound_exit(capsys):
    assert main(["verify-bs-chain", "--f", "or:4", "--g", "and:4"]) == 3


def test_cli_internal_error_exit(capsys, monkeypatch):
    def overflow(blocks):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(M, "max_disjoint_packing", overflow)
    assert main(["measures", "--zoo", "maj:13"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: ")
    assert "RecursionError" in lines[0]


def test_cli_measures_maj13_completes(capsys):
    assert main(["measures", "--zoo", "maj:13", "--out", "json"]) == 0
    (doc,) = json.loads(capsys.readouterr().out)
    assert (doc["s"], doc["bs"], doc["fbs"], doc["deg"], doc["D"]) == (
        7, 7, 7.0, 13, 13)


def test_cli_chain_exit_codes(capsys):
    assert main(["verify-bs-chain", "--f", "maj:3", "--g", "and:2"]) == 0
    capsys.readouterr()
    assert main(["verify-bs-chain", "--f", "or:3", "--g", "and:2"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL" in out and "chain-outer-vs-embedded" in out
    # composed arity 16 and 15: no witness is rejected for rounding noise
    for f, g in (("and:4", "or:4"), ("or:5", "and:3")):
        assert main(["verify-bs-chain", "--f", f, "--g", g,
                     "--max-arity", "20"]) == 0, (f, g)


def test_cli_chain_or6_and2_ends_on_its_first_link(capsys):
    # 729 class orbits of or:6∘and:2 fall to the 28 multisets of six block
    # weights under the declared block swap and cycle, so the chain takes
    # well under a second; it once took minutes and could end in exit 4
    assert main(["verify-bs-chain", "--f", "or:6", "--g", "and:2",
                 "--out", "json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    first = checks.pop("chain-outer-vs-embedded")
    assert first["status"] == "fail"
    assert first["values"] == {"adeg_fg": 3, "bdeg_f_prime_g": 4}
    assert all(c["status"] == "pass" for c in checks.values())


def test_cli_simulate_writes_transcript(tmp_path, capsys):
    path = tmp_path / "trial.log"
    code = main([
        "simulate", "--f", "or:2", "--t", "16", "--trials", "5",
        "--seed", "9", "--transcript", str(path),
    ])
    assert code == 0
    text = path.read_text()
    assert text.splitlines()[0].startswith("query index=")
    assert "summary input=" in text


def test_cli_sink_poly_witness(tmp_path, capsys):
    path = tmp_path / "sink.poly"
    code = main(["sink-poly", "--k", "4", "--witness", str(path)])
    assert code == 0
    poly = A.MultilinearPoly.deserialize(path.read_text(), 6)
    assert poly.max_error_on(F.sink(4)) <= 1 / 3 + 1e-9


def test_cli_sink_poly_k5_dominates_the_lp_degree(capsys):
    assert main(["sink-poly", "--k", "5", "--out", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    (check,) = [c for c in doc["checks"]
                if c["name"] == "degree-dominates-minimum"]
    assert check["status"] == "pass"
    assert check["values"] == {"construction_degree": 4, "adeg_lp": 3}


def test_cli_symmetric_json_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify-symmetric", "--n-max", "4", "--out", "json",
                 "--output", str(out1)]) == 0
    assert main(["verify-symmetric", "--n-max", "4", "--out", "json",
                 "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_symmetric_suite_rejects_an_empty_range(capsys):
    # no function to check is not a pass
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="n_max"):
            V.verify_symmetric(n_max=n_max)
        assert main(["verify-symmetric", "--n-max", str(n_max)]) == 2
        assert capsys.readouterr().err.startswith("error: n_max")


def test_symmetric_suite_rejects_arities_above_the_table_cap(capsys):
    # before enumerating any profile, not after those of arity 1 to 24
    cap = F.DEFAULT_MAX_ARITY
    with pytest.raises(F.ArityLimitError, match="n_max"):
        V.verify_symmetric(n_max=cap + 1)
    assert main(["verify-symmetric", "--n-max", str(cap + 1)]) == 3
    assert capsys.readouterr().err.startswith("resource bound exceeded: n_max")


SYMMETRIC_N6_TEXT = """\
suite symmetric n<=6
[PASS    ] flip-distance-band band=[0.2,3] functions=240 max_ratio=1.29099445 min_ratio=0.25819889
[RECORDED] flip-distance-band-recorded max_ratio=1.29099445 min_ratio=0.25819889
[PASS    ] junta-restriction-lower-bound adeg_best_restriction=4 adeg_f=4
[RECORDED] junta-scale adeg_f=4 formula=2.82842712 k=1
"""


def test_cli_symmetric_text_is_pinned(capsys):
    # reusing one degree per complement/reversal class must not change
    # the report
    assert main(["verify-symmetric", "--n-max", "6"]) == 0
    assert capsys.readouterr().out == SYMMETRIC_N6_TEXT


def test_cli_walks_seed_replay(tmp_path):
    out1 = tmp_path / "w1.txt"
    out2 = tmp_path / "w2.txt"
    assert main(["verify-walks", "--seed", "4", "--output", str(out1)]) == 0
    assert main(["verify-walks", "--seed", "4", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_pror(capsys):
    assert main(["verify-pror", "--inner", "and:2,xor:2"]) == 0


def test_cli_simulate_zero_trials_ok(capsys):
    assert main(["simulate", "--f", "or:2", "--t", "16", "--trials", "0"]) == 0


def test_cli_simulate_rejects_negative_trials(capsys):
    assert main(["simulate", "--f", "or:2", "--t", "16", "--trials", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: trials")


def test_cli_simulate_rejects_an_empty_domain(tmp_path, capsys):
    path = tmp_path / "empty.json"
    F.save_function(F.PartialFn(2, 0, 0), path)
    transcript = tmp_path / "tr.txt"
    assert main(["simulate", "--f", str(path), "--t", "16",
                 "--trials", "3"]) == 2
    assert main(["simulate", "--f", str(path), "--t", "16", "--trials", "0",
                 "--transcript", str(transcript)]) == 2
    err = capsys.readouterr().err
    assert err == "error: function has empty domain\n" * 2
    assert not transcript.exists()


def test_cli_max_arity_only_where_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-walks", "--max-arity", "5"])
    assert exc.value.code == 2
    assert "--max-arity" in capsys.readouterr().err


def test_cli_sink_rejects_oversized_k(capsys):
    assert main(["sink-poly", "--k", "6"]) == 2


# -- bench tracing -------------------------------------------------------------

def test_every_name_the_bench_tracer_wraps_exists():
    # Tracer.install looks each name up; a deleted or renamed one stops every
    # traced bench run there
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod, attr, _ in tracing.FUNCTION_SPANS:
        assert hasattr(importlib.import_module(f"bfclab.{mod}"), attr), attr
    for mod, cls, attr, _ in tracing.METHOD_SPANS:
        owner = getattr(importlib.import_module(f"bfclab.{mod}"), cls)
        assert attr in owner.__dict__, (cls, attr)
