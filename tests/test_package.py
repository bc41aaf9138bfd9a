import fetexpm


def test_public_names_are_pinned():
    assert sorted(fetexpm.__all__) == [
        "BasisTables",
        "EXACT_EXPM",
        "ExpmReport",
        "MatrixParseError",
        "NAMED_MATRICES",
        "StudyRow",
        "TABLE1_STEPS",
        "as_complex_matrix",
        "assemble_rhs",
        "assemble_system",
        "build_tables",
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
