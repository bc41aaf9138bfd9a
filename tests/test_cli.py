import shlex
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from matrix_distance import max_abs_diff
from fetexpm import cli, expm
from fetexpm.cli import main
from fetexpm.matio import format_matrix, parse_matrix
from fetexpm.oracles import exact_m2, m2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expm_builtin_rotation(capsys):
    code, out, err = run_cli(capsys, "expm", "m2")
    assert code == 0 and err == ""
    assert out.startswith("# elements=8 basis=8\n")
    assert max_abs_diff(parse_matrix(out), exact_m2()) <= 5e-14


def test_expm_zero_matrix_from_file(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("2\n0 0\n0 0\n")
    code, out, _ = run_cli(capsys, "expm", str(path))
    assert code == 0
    assert_array_equal(parse_matrix(out), np.eye(2))


def test_expm_degraded_run_prints_known_digits(capsys):
    code, out, _ = run_cli(capsys, "expm", "m3", "-E", "8", "-m", "5")
    assert code == 0
    assert "3.210309315373" in out


def test_expm_output_reparses_bitwise(tmp_path, capsys):
    path = tmp_path / "mat.txt"
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path.write_text(format_matrix(a))
    code, out, _ = run_cli(capsys, "expm", str(path), "-E", "6", "-m", "7")
    assert code == 0
    first = parse_matrix(out)
    code, out2, _ = run_cli(capsys, "expm", str(path), "-E", "6", "-m", "7")
    assert out2 == out
    # what was printed parses back to the exact same doubles
    reprinted = format_matrix(first)
    assert parse_matrix(reprinted).tobytes() == first.tobytes()


def test_expm_writes_output_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = run_cli(capsys, "expm", "unit2", "--output", str(target))
    assert code == 0 and out == ""
    assert max_abs_diff(parse_matrix(target.read_text()), np.e * np.eye(2)) <= 1e-13


def test_flags_left_out_leave_the_library_defaults(monkeypatch, capsys):
    # each default is set once, in the library signature, and the CLI passes
    # on only the flags given
    calls = []

    def recording(result):
        def record(*args, **kwargs):
            calls.append((args[1:], kwargs))
            return result
        return record

    monkeypatch.setattr("fetexpm.cli.expm", recording(expm(m2())))
    monkeypatch.setattr("fetexpm.cli.table1", recording([]))
    monkeypatch.setattr("fetexpm.cli.sweep", recording([]))
    for argv in (("expm", "m1"), ("table1", "m1"), ("sweep", "m2")):
        assert run_cli(capsys, *argv)[0] == 0
    assert calls == [((), {}), ((), {}), (((1, 1),), {})]
    calls.clear()
    for argv in (("expm", "m1", "-E", "3", "-m", "5"),
                 ("table1", "m1", "--tolerance", "1e-9", "--max-basis", "7"),
                 ("sweep", "m2", "--vary", "basis", "--fixed", "4", "--range", "6:9")):
        assert run_cli(capsys, *argv)[0] == 0
    assert calls == [((), {"num_elements": 3, "num_basis": 5}),
                     ((), {"tolerance": 1e-9, "max_basis": 7}),
                     (((1, 1),), {"vary": "basis", "fixed": 4, "lo": 6, "hi": 9})]
    # the parser is built once per process and keeps no flag from one call to the next
    assert cli._build_parser() is cli._build_parser()
    calls.clear()
    for argv in (("expm", "m1"), ("table1", "m1"), ("sweep", "m2")):
        assert run_cli(capsys, *argv)[0] == 0
    assert calls == [((), {}), ((), {}), (((1, 1),), {})]


def test_table1_csv_contents_and_determinism(capsys):
    code, out, _ = run_cli(capsys, "table1", "unit2", "--max-basis", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time_steps,min_basis_functions"
    assert lines[1] == "1,11"
    assert lines[4] == "8,7"
    assert len(lines) == 7
    code, out2, _ = run_cli(capsys, "table1", "unit2", "--max-basis", "12")
    assert out2 == out


def test_table1_unreachable_tolerance_prints_dash(capsys):
    code, out, _ = run_cli(capsys, "table1", "m2", "--tolerance", "1e-30", "--max-basis", "3")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.endswith(",-")


def test_table1_meaningless_tolerance_exits_one(capsys):
    for tolerance in ("nan", "-1", "inf"):
        code, out, err = run_cli(capsys, "table1", "m2", "--tolerance", tolerance)
        assert code == 1 and out == ""
        assert "tolerance" in err


def test_sweep_csv_shape_and_determinism(capsys):
    args = ("sweep", "m2", "--entry", "2,1", "--vary", "basis", "--fixed", "4",
            "--range", "5:7")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "time_steps,basis_functions,entry_re,entry_im,max_abs_error"
    assert len(lines) == 4
    assert lines[1].startswith("4,5,")
    code, out2, _ = run_cli(capsys, *args)
    assert out2 == out


def test_sweep_defaults_to_bottom_right_entry(capsys):
    code, out, _ = run_cli(capsys, "sweep", "m3", "--range", "5:5")
    assert code == 0
    assert out.splitlines()[1].startswith("5,8,3.210309305973")


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["expm", "m2", "--bogus"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["table1", "m3"])  # no exact reference for m3
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["expm", "m2", "-E", "0"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["sweep", "m2", "--entry", "1"])
    assert err.value.code == 1
    for argv, message in ((["expm", "m2", "-E", "x"], "not an integer: 'x'"),
                          (["expm", "m2", "-m", "2.5"], "not an integer: '2.5'"),
                          (["sweep", "m2", "--entry", "0,1"], "entry indices are 1-based and positive")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert message in capsys.readouterr().err
    for bad_range in ("5", "9:5", "a:b"):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "m2", "--range", bad_range])
        assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


def test_entry_out_of_range_exits_one(capsys):
    code, _, err = run_cli(capsys, "sweep", "m2", "--entry", "3,1", "--range", "5:5")
    assert code == 1
    assert "out of range" in err


def test_parse_error_exits_two_with_position(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("2\n1 garbage\n3 4\n")
    code, out, err = run_cli(capsys, "expm", str(path))
    assert code == 2 and out == ""
    assert "line 2" in err and "column 3" in err


def test_missing_file_exits_two(tmp_path, capsys):
    # nothing was parsed, so neither a position nor "parse error" is printed
    for path in ("no_such_file.txt", str(tmp_path)):
        code, _, err = run_cli(capsys, "expm", path)
        assert code == 2
        assert err.startswith("fetexpm: cannot read")
        assert "line" not in err and "parse error" not in err


def test_non_utf8_file_exits_two_with_position(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"2\n1 \xff\n0 1\n")
    code, out, err = run_cli(capsys, "expm", str(path))
    assert code == 2 and out == ""
    assert "line 2, column 3" in err


def test_numerical_failure_exits_three(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("1\n1e308\n")
    code, _, err = run_cli(capsys, "expm", str(path))
    assert code == 3
    assert "numerical failure" in err
    # the Taylor reference of sweep: every entry is finite, its norm is not
    path.write_text("2\n1e308 1e308\n0 0\n")
    code, out, err = run_cli(capsys, "sweep", str(path))
    assert code == 3 and out == ""
    assert "numerical failure" in err and "overflow" in err


def test_overflowing_propagation_exits_three(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("1\n800\n")
    code, out, err = run_cli(capsys, "expm", str(path), "-E", "128")
    assert code == 3 and out == ""
    assert "numerical failure" in err and "overflow" in err


def test_singular_block_system_exits_three(tmp_path, capsys):
    # E=3, m=1: the block system's only entry is 6*pi - 4 * 1.5*pi = 0
    path = tmp_path / "four.txt"
    path.write_text("1\n4\n")
    code, out, err = run_cli(capsys, "expm", str(path), "-E", "3", "-m", "1")
    assert code == 3 and out == ""
    assert "numerical failure" in err and "Singular" in err


def readme_examples():
    """Each ``$ fetexpm ...`` line of the README and the output printed under it.

    The output runs to the next blank line or the end of the code block.
    """
    examples, command, lines = [], None, []
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text(encoding="utf-8").splitlines() + [""]:
        if command is not None and (not line.strip() or line.startswith("```")):
            examples.append((command, "".join(f"{item}\n" for item in lines)))
            command, lines = None, []
        elif command is not None:
            lines.append(line)
        elif line.startswith("$ fetexpm "):
            command = line[len("$ fetexpm "):]
    return examples


def test_readme_examples_print_what_the_readme_shows(capsys):
    examples = readme_examples()
    assert [command.split()[0] for command, _ in examples] == ["expm", "table1", "sweep", "sweep"]
    for command, expected in examples:
        code, out, err = run_cli(capsys, *shlex.split(command))
        assert (code, err) == (0, "")
        assert out == expected, command
