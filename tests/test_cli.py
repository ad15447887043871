"""Command-line interface: commands, formats, exit codes, determinism."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from qslkit.cli import main
from qslkit.jsonio import dumps_canonical, load_matrix, matrix_to_json, save_matrix
from qslkit import (InvalidParameterError, Schatten, gate_time, haar_su, log_branches,
                    principal_log)
from qslkit.gates import orthogonalizer


@pytest.fixture
def schatten2(tmp_path):
    path = tmp_path / "schatten2.json"
    path.write_text('{"kind": "schatten", "params": {"p": 2}}')
    return str(path)


@pytest.fixture
def mt0(tmp_path):
    path = tmp_path / "mt0.json"
    path.write_text(json.dumps(
        {"kind": "mt", "params": {"psi": {"dim": 2, "re": [1, 0], "im": [0, 0]}}}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_time_command_table(capsys, mt0):
    code, out, _ = run_cli(capsys, "time", "--gate", "orthogonalizer:3.141592653589793:2",
                           "--constraint", mt0, "--kappa", "1")
    assert code == 0
    assert out.splitlines()[0] == "T = 1.570796327"


def test_time_command_json_round_trip(capsys, mt0):
    code, out, _ = run_cli(capsys, "time", "--gate", "orthogonalizer:3.141592653589793:2",
                           "--constraint", mt0, "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["time"] == pytest.approx(np.pi / 2, abs=1e-12)
    assert dumps_canonical(report) == out


def test_classify_command(capsys, schatten2):
    code, out, _ = run_cli(capsys, "classify", "--constraint", schatten2)
    assert code == 0
    assert out.strip() == ("Ad-invariant: yes — "
                           "Constant Hamiltonian optimal for all gates")


def test_classify_non_invariant(capsys, mt0):
    code, out, _ = run_cli(capsys, "classify", "--constraint", mt0)
    assert code == 0
    assert out.startswith("Ad-invariant: no")


def test_branches_command_csv(capsys, tmp_path):
    gate_path = tmp_path / "diag.json"
    save_matrix(str(gate_path), np.diag([1j, -1j]))
    code, out, _ = run_cli(capsys, "branches", "--gate", f"file:{gate_path}",
                           "--n-max", "1", "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "branch,shifts,frobenius,shifted_angles"
    assert len(lines) == 4  # shift pairs (0,0), (1,-1), (-1,1)


def test_branches_identity_single_coherent_branch(capsys):
    # degenerate eigenvalues share a winding, so the identity has exactly one
    # traceless branch no matter the winding bound
    code, out, _ = run_cli(capsys, "branches", "--gate", "identity:2",
                           "--n-max", "3", "--output", "csv")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_conjmin_command(capsys, schatten2):
    code, out, _ = run_cli(capsys, "conjmin", "--gate", "orthogonalizer:3.141592653589793:2",
                           "--constraint", schatten2, "--restarts", "2", "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert report["f_value"] == pytest.approx(np.pi / np.sqrt(2), abs=1e-8)
    assert report["conjugator"]["dim"] == 2


def test_action_command(capsys, tmp_path, schatten2):
    h = matrix_to_json(np.array([[0, 1], [1, 0]]) / np.sqrt(2))
    traj = {"duration": 2.0,
            "samples": [{"t": t, "matrix": h} for t in np.linspace(0, 2, 11)]}
    path = tmp_path / "traj.json"
    path.write_text(dumps_canonical(traj))
    code, out, _ = run_cli(capsys, "action", "--constraint", schatten2,
                           "--trajectory", str(path))
    assert code == 0
    assert out.splitlines()[0] == "S = 2"


def test_invariance_command_json(capsys, schatten2):
    code, out, _ = run_cli(capsys, "invariance", "--constraint", schatten2,
                           "--dim", "3", "--samples", "50", "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["ad_invariant"] is True
    assert report["dim"] == 3
    assert report["threshold"] == 1e-8


def test_geodesic_command(capsys, schatten2):
    code, out, _ = run_cli(capsys, "geodesic", "--gate", "qft:3",
                           "--constraint", schatten2, "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["passes"] is True


def test_reproduce_all_pass(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--seed", "42")
    assert code == 0
    assert out.splitlines()[-1] == "all rows PASS"
    assert out.count("PASS") == 16  # 15 rows + summary line


def test_reproduce_identical_output_same_config(capsys):
    _, out1, _ = run_cli(capsys, "reproduce", "--seed", "42", "--output", "json")
    _, out2, _ = run_cli(capsys, "reproduce", "--seed", "42", "--output", "json")
    assert out1 == out2


def test_exit_2_on_bad_constraint(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nope"}')
    code, _, err = run_cli(capsys, "time", "--gate", "identity:2",
                           "--constraint", str(bad))
    assert code == 2
    assert "kind" in err


def test_exit_2_on_malformed_json_with_position(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"kind": ')
    code, _, err = run_cli(capsys, "time", "--gate", "identity:2",
                           "--constraint", str(bad))
    assert code == 2
    assert "1:" in err  # line:column diagnostics


def test_exit_4_on_non_unitary_gate_file(capsys, tmp_path, schatten2):
    path = tmp_path / "gate.json"
    save_matrix(str(path), np.diag([1.0, 2.0]))
    code, _, err = run_cli(capsys, "time", "--gate", f"file:{path}",
                           "--constraint", schatten2)
    assert code == 4
    assert "unitary" in err


@pytest.mark.parametrize("theta", ["inf", "-inf", "nan"])
def test_exit_4_on_non_finite_orthogonalizer_angle(capsys, schatten2, theta):
    # refused before any arithmetic: no numpy RuntimeWarning, one error line
    with pytest.raises(InvalidParameterError, match=f"theta must be finite, got {float(theta)}"):
        orthogonalizer(float(theta), 2)
    code, out, err = run_cli(capsys, "time", "--gate", f"orthogonalizer:{theta}:2",
                             "--constraint", schatten2, "--kappa", "1")
    assert (code, out) == (4, "")
    assert err == f"error: theta must be finite, got {float(theta)}\n"


@pytest.mark.parametrize("command", ["time", "geodesic"])
def test_unitary_tolerance_flag_admits_near_unitary_gate_file(capsys, tmp_path, schatten2,
                                                               command):
    # U†U - I is 1e-8 on the diagonal: refused at the default 1e-10,
    # accepted by every command under --tol unitary=1e-6
    path = tmp_path / "gate.json"
    save_matrix(str(path), (1 + 5e-9) * orthogonalizer(np.pi / 3, 2))
    argv = (command, "--gate", f"file:{path}", "--constraint", schatten2)
    assert run_cli(capsys, *argv)[0] == 4
    code, out, err = run_cli(capsys, *argv, "--tol", "unitary=1e-6")
    assert (code, err) == (0, "")
    assert out


def test_exit_2_on_nonpositive_kappa(capsys, schatten2):
    code, _, err = run_cli(capsys, "time", "--gate", "identity:2",
                           "--constraint", schatten2, "--kappa", "0")
    assert code == 2
    assert "kappa" in err


def test_env_seed_override(capsys, monkeypatch, mt0):
    monkeypatch.setenv("QSL_SEED", "7")
    _, out1, _ = run_cli(capsys, "invariance", "--constraint", mt0,
                         "--seed", "1", "--output", "json")
    _, out2, _ = run_cli(capsys, "invariance", "--constraint", mt0,
                         "--seed", "2", "--output", "json")
    assert out1 == out2
    assert json.loads(out1)["seed"] == 7


def test_gate_file_round_trip(capsys, tmp_path, schatten2):
    gate = haar_su(3, seed=5)
    path = tmp_path / "gate.json"
    save_matrix(str(path), gate)
    code, out, _ = run_cli(capsys, "time", "--gate", f"file:{path}",
                           "--constraint", schatten2, "--output", "json")
    assert code == 0
    assert json.loads(out)["time"] > 0


def test_time_default_n_max_answers_gate_with_nonzero_winding(capsys, tmp_path, schatten2):
    # the principal angles of this gate do not sum to zero, so the |n_k| <= 0
    # window is empty; the principal branch is searched all the same
    gate = haar_su(4, seed=51)
    path = tmp_path / "gate.json"
    save_matrix(str(path), gate)
    assert not log_branches(load_matrix(str(path)), 0)
    code, out, err = run_cli(capsys, "time", "--gate", f"file:{path}",
                             "--constraint", schatten2, "--output", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    want = gate_time(Schatten(p=2), 1.0, load_matrix(str(path)), n_max=1)
    assert report["time"] == want.time
    assert report["branch_shifts"] == principal_log(gate).shifts.tolist()
    assert report["branch_shifts"] == want.branch.shifts.tolist()


@pytest.mark.parametrize("command,flag", [("time", "--n-max"), ("branches", "--n-max"),
                                          ("geodesic", "--branch-sweep")])
def test_exit_4_on_branch_lattice_above_the_cap(capsys, tmp_path, schatten2, command, flag):
    # 11 distinct eigenvalues at a window of 3: 7**10 candidate rows
    path = tmp_path / "gate.json"
    save_matrix(str(path), np.diag(np.exp(0.1j * (np.arange(11) - 5))))
    constraint = () if command == "branches" else ("--constraint", schatten2)
    code, out, err = run_cli(capsys, command, "--gate", f"file:{path}", *constraint, flag, "3")
    assert (code, out) == (4, "")
    assert f"n_max = 3 needs {7 ** 10} branch lattice rows" in err


def test_exit_4_on_dimension_mismatch(capsys, mt0):
    code, _, err = run_cli(capsys, "time", "--gate", "qft:3", "--constraint", mt0)
    assert code == 4
    assert "dimension" in err


def test_tolerance_override_flag(capsys, mt0):
    # mt's normalized residual at qft:2 is 1.414: the geodesic threshold set
    # by --tol flips the verdict (Schatten's residual is exactly 0)
    for tol, passes in ((None, False), ("1.5", True), ("1.3", False)):
        flag = () if tol is None else ("--tol", f"geodesic={tol}")
        code, out, _ = run_cli(capsys, "geodesic", "--gate", "qft:2", "--constraint", mt0,
                               *flag, "--output", "json")
        assert code == 0
        report = json.loads(out)
        assert (report["passes"], report["threshold"]) == (passes, float(tol or 1e-6))
        assert 1.3 < report["normalized_max"] < 1.5


@pytest.mark.parametrize("kappa", ["inf", "nan"])
def test_exit_2_on_non_finite_kappa(capsys, schatten2, kappa):
    code, _, err = run_cli(capsys, "time", "--gate", "identity:2",
                           "--constraint", schatten2, "--kappa", kappa)
    assert code == 2
    assert "kappa" in err


def test_exit_4_on_nan_gate_file(capsys, tmp_path, schatten2):
    gate = np.eye(2, dtype=complex)
    gate[0, 1] = np.nan
    path = tmp_path / "gate.json"
    save_matrix(str(path), gate)
    code, _, err = run_cli(capsys, "time", "--gate", f"file:{path}",
                           "--constraint", schatten2)
    assert code == 4
    assert "unitary" in err


OP_SHIFTED_PAIR = [{"kind": "op_shifted"}, {"kind": "op_shifted"}]


@pytest.mark.parametrize("spec,field", [
    ({"kind": "schatten", "params": {"p": [1]}}, "params.p"),
    ({"kind": "schatten", "params": {"p": None}}, "params.p"),
    ({"kind": "sum", "children": 5}, "children"),
    ({"kind": "schatten", "params": {"p": 0.5}}, "params.p"),
    ({"kind": "powmean", "params": {"p": -1}, "children": OP_SHIFTED_PAIR}, "params.p"),
    ({"kind": "schatten", "params": 5}, "params"),
    ({"kind": "ml", "params": {"p": 1}}, "params.psi"),
    ({"kind": "mt"}, "params.psi"),
    ({"kind": "randers", "params": {"oneform": {"dim": 3, "re": [0, 0, 0], "im": [0, 0, 0]}}},
     "params.metric"),
    ({"kind": "randers", "params": {"metric": {"dim": 3, "re": np.eye(3).tolist(),
                                               "im": np.zeros((3, 3)).tolist()}}},
     "params.oneform"),
    ({"kind": {"a": 1}}, "kind"),
    ({"kind": "schatten", "params": {"p": "2"}}, "params.p"),
])
def test_exit_2_on_malformed_constraint_spec(capsys, spec, field):
    code, _, err = run_cli(capsys, "time", "--gate", "qft:2",
                           "--constraint", json.dumps(spec))
    assert code == 2
    assert f"field '{field}'" in err
    assert "Traceback" not in err


def randers_spec(metric_diag, oneform):
    return json.dumps({"kind": "randers", "params": {
        "metric": {"dim": 3, "re": np.diag(metric_diag).tolist(), "im": np.zeros((3, 3)).tolist()},
        "oneform": {"dim": 3, "re": list(oneform), "im": [0, 0, 0]}}})


@pytest.mark.parametrize("spec,message", [
    (randers_spec([1.0, -1.0, 1.0], [0, 0, 0]), "metric must be positive definite"),
    (randers_spec([1.0, 1.0, 1.0], [0.8, 0.8, 0]), "oneform too large for positivity"),
    (randers_spec([1.0, float("nan"), 1.0], [0, 0, 0]), "metric and oneform must be finite"),
    (randers_spec([1.0, 1.0, 1.0], [0, float("inf"), 0]), "metric and oneform must be finite"),
], ids=["metric", "oneform", "metric-nan", "oneform-inf"])
def test_exit_2_on_randers_outside_its_domain(capsys, spec, message):
    code, _, err = run_cli(capsys, "time", "--gate", "qft:2", "--constraint", spec)
    assert code == 2
    assert f"field 'params': {message}" in err
    assert "Traceback" not in err


def nested_sum(depth):
    """A sum tree ``depth`` levels deep, as JSON text."""
    text = '{"kind": "op_shifted"}'
    for _ in range(depth - 1):
        text = f'{{"kind": "sum", "children": [{text}, {{"kind": "op_shifted"}}]}}'
    return text


@pytest.mark.parametrize("depth,message", [(400, "field 'children'"),
                                           (5000, "nested too deeply")])
@pytest.mark.parametrize("inline", [True, False])
def test_exit_2_on_deep_constraint_tree(capsys, tmp_path, depth, message, inline):
    spec = nested_sum(depth)
    if not inline:
        path = tmp_path / "deep.json"
        path.write_text(spec)
        spec = str(path)
    code, _, err = run_cli(capsys, "time", "--gate", "qft:2", "--constraint", spec)
    assert code == 2
    assert message in err
    assert "Traceback" not in err


SCHATTEN2 = '{"kind": "schatten", "params": {"p": 2}}'
ORTH_PI = "orthogonalizer:3.141592653589793:2"


@pytest.fixture
def traj3(tmp_path):
    h = matrix_to_json(np.array([[0, 1], [1, 0]]) / np.sqrt(2))
    path = tmp_path / "traj3.json"
    path.write_text(dumps_canonical(
        {"duration": 1.0, "samples": [{"t": t, "matrix": h} for t in (0.0, 0.5, 1.0)]}))
    return str(path)


# Per command: the table's leading lines (a label before " = ", or a whole
# fixed header line), the CSV header and the JSON key set.
CONTRACT = [
    (("time", "--gate", ORTH_PI, "--constraint", SCHATTEN2),
     ["T", "f(log O)", "kappa", "branch shifts", "branches considered"],
     "time,f_value,kappa,n_max,branch_shifts,branches_considered",
     {"command", "gate", "kappa", "n_max", "time", "f_value", "branch_shifts",
      "branches_considered"}),
    (("branches", "--gate", "identity:2"),
     ["1 traceless logarithm branches (|n_k| <= 1)",
      "branch     frobenius  shifts / shifted angles"],
     "branch,shifts,frobenius,shifted_angles",
     {"command", "gate", "n_max", "count", "branches"}),
    (("conjmin", "--gate", ORTH_PI, "--constraint", SCHATTEN2, "--restarts", "2"),
     ["T", "f min", "kappa", "converged", "iterations", "restarts"],
     "time,f_value,kappa,restarts,seed,converged,iterations",
     {"command", "gate", "kappa", "seed", "restarts", "time", "f_value", "converged",
      "iterations", "conjugator"}),
    (("action", "--constraint", SCHATTEN2, "--trajectory", "TRAJ"),
     ["S", "duration", "samples"],
     "action,duration,samples",
     {"command", "trajectory", "samples", "duration", "action"}),
    (("invariance", "--constraint", SCHATTEN2, "--dim", "2", "--samples", "20"),
     ["Ad-invariant", "max deviation", "samples", "norm axioms (sampled)", "cell"],
     "dim,ad_invariant,max_deviation,samples,is_norm,seed,threshold",
     {"command", "dim", "ad_invariant", "max_deviation", "samples", "is_norm",
      "table_cell", "seed", "threshold"}),
    (("geodesic", "--gate", "qft:3", "--constraint", SCHATTEN2),
     ["passes", "normalized max residual", "threshold", "step", "branch shifts"],
     "passes,normalized_max,threshold,step",
     {"command", "gate", "passes", "normalized_max", "threshold", "step",
      "branch_shifts", "residuals"}),
    (("classify", "--constraint", SCHATTEN2, "--samples", "20"),
     ["Ad-invariant: yes — Constant Hamiltonian optimal for all gates"],
     "dim,ad_invariant,is_norm,classification",
     {"command", "dim", "ad_invariant", "is_norm", "classification", "table_cell",
      "max_deviation", "samples", "seed", "threshold"}),
    (("reproduce",),
     ["closed-form bound reproduction (kappa = 1, tolerance 1e-09, seed 0)",
      "bound  p    N        computed      analytic   abs error  status"],
     "bound,p,n,computed,analytic,abs_error,status",
     {"command", "seed", "tolerance", "all_pass", "rows"}),
]


@pytest.mark.parametrize("argv,heads,csv_header,json_keys", CONTRACT,
                         ids=[c[0][0] for c in CONTRACT])
def test_output_contract(capsys, monkeypatch, traj3, argv, heads, csv_header, json_keys):
    monkeypatch.delenv("QSL_SEED", raising=False)
    argv = [traj3 if a == "TRAJ" else a for a in argv]
    code, table, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = table.splitlines()
    if argv[0] not in ("branches", "reproduce"):
        assert len(lines) == len(heads)
    for line, head in zip(lines, heads):
        assert line == head or line.startswith(head + " = ")
    _, csv_out, _ = run_cli(capsys, *argv, "--output", "csv")
    assert csv_out.splitlines()[0] == csv_header
    _, json_out, _ = run_cli(capsys, *argv, "--output", "json")
    assert set(json.loads(json_out)) == json_keys


BAD_FLAGS = [
    (("invariance", "--constraint", SCHATTEN2, "--seed", "-1"), None, "field 'seed'"),
    (("reproduce", "--seed", "-1"), None, "field 'seed'"),
    (("invariance", "--constraint", SCHATTEN2), "-1", "QSL_SEED"),
    (("geodesic", "--gate", "qft:3", "--constraint", SCHATTEN2, "--step", "0"), None,
     "field 'step'"),
    (("geodesic", "--gate", "qft:3", "--constraint", SCHATTEN2, "--step", "nan"), None,
     "field 'step'"),
    (("geodesic", "--gate", "qft:3", "--constraint", SCHATTEN2, "--threshold", "nan"), None,
     "field 'threshold'"),
    (("geodesic", "--gate", "qft:3", "--constraint", SCHATTEN2, "--threshold", "-1"), None,
     "field 'threshold'"),
    (("geodesic", "--gate", "qft:3", "--constraint", SCHATTEN2, "--branch-sweep", "-1"), None,
     "field 'branch_sweep'"),
    (("time", "--gate", "qft:3", "--constraint", SCHATTEN2, "--tol", "bogus=1"), None,
     "field 'tol.bogus'"),
    (("invariance", "--constraint", SCHATTEN2, "--tol", "invariance=nan"), None,
     "field 'tol.invariance'"),
    (("time", "--gate", "qft:3", "--constraint", SCHATTEN2, "--n-max", "-1"), None,
     "field 'n_max'"),
    (("conjmin", "--gate", ORTH_PI, "--constraint", SCHATTEN2, "--restarts", "0"), None,
     "field 'restarts'"),
    (("invariance", "--constraint", SCHATTEN2, "--samples", "0"), None, "field 'samples'"),
    (("classify", "--constraint", SCHATTEN2, "--dim", "1"), None, "field 'dim'"),
]


@pytest.mark.parametrize("argv,env,field", BAD_FLAGS, ids=[
    f"QSL_SEED={env}" if env else " ".join((argv[0],) + argv[-2:]) for argv, env, _ in BAD_FLAGS])
def test_exit_2_on_out_of_bounds_flag(capsys, monkeypatch, argv, env, field):
    if env is None:
        monkeypatch.delenv("QSL_SEED", raising=False)
    else:
        monkeypatch.setenv("QSL_SEED", env)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert field in err
    assert "Traceback" not in err


def test_invariance_memory_does_not_grow_with_samples(capsys):
    # F is evaluated on stacks of at most constraints.STACK_ENTRIES matrix
    # entries; stacking all 20,000 samples would need 5.4 MB for the draws alone
    run_cli(capsys, "invariance", "--constraint", SCHATTEN2, "--dim", "3", "--samples", "20")
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "invariance", "--constraint", SCHATTEN2, "--dim", "3",
                               "--samples", "20000", "--output", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["samples"] == 20000
    assert peak < 2_500_000


# sha256 of stdout, recorded when F was evaluated one point at a time (the
# geodesic reports since their residual is the first difference of F**2, and
# since mt takes its variance as |(H - mean) psi|**2): how F is evaluated may
# change, these reports may not.
MAX_S2_RANGE = ('{"kind": "max", "children": [{"kind": "schatten", "params": {"p": 2}}, '
                '{"kind": "op_shifted"}]}')
ML2_QUBIT = '{"kind": "ml", "params": {"p": 2, "psi": {"dim": 2, "re": [1, 0], "im": [0, 0]}}}'
MT_HAAR4 = '{"kind": "mt", "params": {"psi": {"dim": 4, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}}}'
# most of their 85 branch scores on haar4 at n_max = 2 overflow (63 and 81)
SCHATTEN300 = '{"kind": "schatten", "params": {"p": 300}}'
POWMEAN300 = ('{"kind": "powmean", "params": {"p": 300}, "children": '
              '[{"kind": "schatten", "params": {"p": 2}}, {"kind": "op_shifted"}]}')
STDOUT_PINS = [
    (("invariance", "--constraint", MAX_S2_RANGE, "--dim", "3"),
     "ec3e5f8ded8a96fd2233110838e34465c378aa542a30cc9729436e9d3e9946bc"),
    (("classify", "--constraint", ML2_QUBIT),
     "8d6cb8680b18b01cfe3847ca69664793eee0896617a3b7c6a3ce189c57486c4a"),
    (("geodesic", "--constraint", MT_HAAR4, "--gate", "file:haar4.json", "--branch-sweep", "0"),
     "62fb667036a6409f322900b3a5efc6929244718f549570ce99cfa81fd8af13f8"),
    (("geodesic", "--constraint", MT_HAAR4, "--gate", "file:haar4.json", "--branch-sweep", "1"),
     "97112471c60fe8203f6da2af2bc7137740b5213ddaecd747e5e1aa36c41d8877"),
    (("action", "--constraint", SCHATTEN2, "--trajectory", "traj.json"),
     "3be4753f8332c79b7e0e8d329bfa255d8dab8005de847503fab5f588f71c66bf"),
    (("time", "--constraint", MT_HAAR4, "--gate", "file:haar4.json", "--n-max", "2"),
     "093c60921d384a692ebfb9608a8ffa585edff3d234cdff57fca8122d537bc772"),
    (("time", "--constraint", SCHATTEN300, "--gate", "file:haar4.json", "--n-max", "2"),
     "5aca64fdcd57c12b132d97b354ea112a268b682d4f5fb6fd9fe023aee3f39e96"),
    (("time", "--constraint", POWMEAN300, "--gate", "file:haar4.json", "--n-max", "2"),
     "8dc88fb7ad461526c150d7818f61305f5027b2e689405053862a1a36dfe92bc8"),
]


@pytest.mark.parametrize("argv,digest", STDOUT_PINS,
                         ids=["invariance", "classify", "geodesic-0", "geodesic-1", "action",
                              "time-mt", "time-schatten300", "time-powmean300"])
def test_json_reports_keep_their_bytes(capsys, monkeypatch, tmp_path, argv, digest):
    monkeypatch.delenv("QSL_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    save_matrix("haar4.json", haar_su(4, seed=2024))
    ts = np.linspace(0.0, 2.0, 41)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    (tmp_path / "traj.json").write_text(dumps_canonical({"duration": 2.0, "samples": [
        {"t": float(t), "matrix": matrix_to_json(np.cos(t) * sx + (1.0 + 0.5 * np.sin(t)) * sz)}
        for t in ts]}))
    code, out, _ = run_cli(capsys, *argv, "--output", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
