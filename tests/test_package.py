import os
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
        "max_abs_diff",
        "parse_matrix",
    ]
    assert all(hasattr(fetexpm, name) for name in fetexpm.__all__)
    # internal: the assembly kernels and tables, and the built-in matrices and
    # their exponentials (also reached through the dicts); public in their
    # modules: the paper's studies and the dicts of built-in matrices
    for name in ("BasisTables", "assemble_rhs", "assemble_system", "build_tables",
                 "exact_m1", "exact_m2", "exact_unit2", "m1", "m2", "m3", "m4", "unit2",
                 "EXACT_EXPM", "NAMED_MATRICES", "StudyRow", "TABLE1_STEPS",
                 "min_basis_for_tolerance", "sweep", "table1"):
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
