import os
import re
import subprocess
import sys
from pathlib import Path

import fetexpm


def test_public_names_are_pinned():
    assert sorted(fetexpm.__all__) == [
        "ExpmReport",
        "MatrixParseError",
        "as_complex_matrix",
        "expm",
        "expm_taylor_squaring",
        "format_matrix",
        "load_matrix",
        "parse_matrix",
    ]
    assert all(hasattr(fetexpm, name) for name in fetexpm.__all__)
    # internal: the assembly kernels and tables, and the built-in matrices and
    # their exponentials (also reached through the dicts); public in their
    # modules: the paper's studies and the dicts of built-in matrices; gone:
    # max_abs_diff, which no library code called
    for name in ("BasisTables", "assemble_rhs", "assemble_system", "build_tables",
                 "exact_m1", "exact_m2", "exact_unit2", "m1", "m2", "m3", "m4", "unit2",
                 "EXACT_EXPM", "NAMED_MATRICES", "StudyRow", "TABLE1_STEPS",
                 "min_basis_for_tolerance", "sweep", "table1", "max_abs_diff"):
        assert not hasattr(fetexpm, name)


def test_import_and_expm_do_not_load_scipy():
    # importing scipy.linalg costs several times the package's own import, and
    # the studies and the CLI are loaded only by those who ask for them; the
    # 16 x 16 call runs the pencil solve, whose factors are numpy-only
    src = str(Path(fetexpm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, numpy, fetexpm, fetexpm.oracles; "
            "fetexpm.expm(fetexpm.oracles.NAMED_MATRICES['m1']()); "
            "fetexpm.expm(numpy.eye(16) / 4); "
            "print(sorted({'scipy', 'fetexpm.studies', 'fetexpm.cli'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_readme_quick_start_runs_and_quotes_its_error():
    # the Python block of the README runs against the package as it is; its
    # last line is the error against the Taylor reference, quoted after "~"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    *statements, last = block.strip().splitlines()
    namespace = {}
    exec("\n".join(statements), namespace)
    error = eval(last, namespace)
    quoted = re.search(r"# ~(\S+)$", last).group(1)
    assert error <= 1e-14 and f"{error:.0e}" == quoted
