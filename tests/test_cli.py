"""Command-line interface: commands, formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from qslkit.cli import main
from qslkit.jsonio import dumps_canonical, matrix_to_json, save_matrix
from qslkit import haar_su


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


def test_exit_4_on_dimension_mismatch(capsys, mt0):
    code, _, err = run_cli(capsys, "time", "--gate", "qft:3", "--constraint", mt0)
    assert code == 4
    assert "dimension" in err


def test_tolerance_override_flag(capsys, schatten2):
    # a brutally tight geodesic threshold flips the verdict
    code, out, _ = run_cli(capsys, "geodesic", "--gate", "qft:3",
                           "--constraint", schatten2, "--tol", "geodesic=1e-18",
                           "--output", "json")
    assert code == 0
    assert json.loads(out)["passes"] is False


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
])
def test_exit_2_on_malformed_constraint_spec(capsys, spec, field):
    code, _, err = run_cli(capsys, "time", "--gate", "qft:2",
                           "--constraint", json.dumps(spec))
    assert code == 2
    assert f"field '{field}'" in err
    assert "Traceback" not in err
