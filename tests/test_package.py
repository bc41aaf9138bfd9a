import os
import subprocess
import sys
from pathlib import Path

import fetexpm


def test_public_names_are_pinned():
    assert sorted(fetexpm.__all__) == [
        "EXACT_EXPM",
        "ExpmReport",
        "MatrixParseError",
        "NAMED_MATRICES",
        "StudyRow",
        "TABLE1_STEPS",
        "as_complex_matrix",
        "exact_m1",
        "exact_m2",
        "exact_unit2",
        "expm",
        "expm_taylor_squaring",
        "format_matrix",
        "load_matrix",
        "m1",
        "m2",
        "m3",
        "m4",
        "max_abs_diff",
        "min_basis_for_tolerance",
        "parse_matrix",
        "sweep",
        "table1",
        "unit2",
    ]
    assert all(hasattr(fetexpm, name) for name in fetexpm.__all__)
    # the assembly kernels and tables are internal: reach them through their modules
    for name in ("BasisTables", "assemble_rhs", "assemble_system", "build_tables"):
        assert not hasattr(fetexpm, name)


def test_import_and_expm_do_not_load_scipy():
    # importing scipy.linalg costs several times the package's own import;
    # the 16 x 16 call runs the pencil solve, whose factors are numpy-only
    src = str(Path(fetexpm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, numpy, fetexpm; fetexpm.expm(fetexpm.m1()); "
            "fetexpm.expm(numpy.eye(16) / 4); print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "False"
