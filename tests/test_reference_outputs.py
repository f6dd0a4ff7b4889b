"""tools/reference_outputs.py records a command set that compare_outputs.py checks whole."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference_outputs, compare_outputs = load("reference_outputs"), load("compare_outputs")

TINY = {
    "tiny": ["run", "--scenario", "shock", "--n_elements", "8", "--t_final", "0.0003"],
    "refused": ["run", "--scenario", "shock", "--dt", "0"],
}


def test_a_command_set_recorded_twice_is_identical_until_a_byte_moves(tmp_path, capsys):
    trees = [str(tmp_path / side) for side in ("base", "change")]
    for tree in trees:
        reference_outputs.record(Path(tree), TINY)
    tiny = Path(trees[0]) / "tiny"
    assert (tiny / "stdout").read_text() == "out/profile.csv\nout/diagnostics.csv\n"
    assert (tiny / "exit_code").read_text() == "0\n"
    assert (Path(trees[0]) / "refused" / "exit_code").read_text() == "2\n"
    assert compare_outputs.main(trees) == 0
    assert capsys.readouterr().out == (
        "2 of 2 CSV files identical\n6 of 6 run records identical\n")

    (Path(trees[1]) / "refused" / "exit_code").write_text("1\n")
    profile = Path(trees[1]) / "tiny" / "out" / "profile.csv"
    profile.write_text(profile.read_text().replace("e", "E", 1))
    assert compare_outputs.main(trees) == 1
    assert capsys.readouterr().out == (
        "differs: refused/exit_code\ndiffers: tiny/out/profile.csv\n"
        "1 of 2 CSV files identical\n5 of 6 run records identical\n")


def test_usage_errors_exit_2(tmp_path, capsys):
    for argv in ([], [str(tmp_path)], [str(tmp_path / "a"), str(tmp_path / "b")]):
        assert reference_outputs.main(argv) == 2
        assert capsys.readouterr().err.startswith("usage: ")
