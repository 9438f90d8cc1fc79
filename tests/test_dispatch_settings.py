"""The dispatch-matrix runner's settings and its reading of pytest output.

`run_dispatch.py` replays the byte goldens under each setting outside the
tier-1 suite. This checks that every setting is only environment variables
of the child process, that the settings cover the thread counts, OpenBLAS
core types and numpy SIMD levels the runner promises, that each feature a
setting disables is one this numpy dispatches to (a name numpy does not know
is ignored silently, so the row would replay the default), and that the
failing test ids are read off pytest's short summary.
"""

from numpy._core import _multiarray_umath

from run_dispatch import ONE_THREAD, ROOT, SETTINGS, TESTS, child_env, failed_ids

DISPATCH_VARIABLES = {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_CORETYPE",
                      "NPY_DISABLE_CPU_FEATURES"}


def test_settings_cover_threads_core_types_and_simd_levels():
    assert list(SETTINGS) == ["threads-1", "threads-2", "coretype-haswell",
                              "coretype-sandybridge", "coretype-prescott",
                              "simd-no-avx512", "simd-no-avx2"]
    assert ONE_THREAD == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    assert SETTINGS["threads-2"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    assert [SETTINGS[f"coretype-{c.lower()}"] for c in ("Haswell", "Sandybridge", "Prescott")] \
        == [{"OPENBLAS_CORETYPE": c} for c in ("Haswell", "Sandybridge", "Prescott")]
    no_avx512 = set(SETTINGS["simd-no-avx512"]["NPY_DISABLE_CPU_FEATURES"].split(","))
    no_avx2 = set(SETTINGS["simd-no-avx2"]["NPY_DISABLE_CPU_FEATURES"].split(","))
    assert no_avx512 < no_avx2 and no_avx2 - no_avx512 == {"X86_V3"}
    assert no_avx2 <= set(_multiarray_umath.__cpu_dispatch__)


def test_every_setting_is_environment_variables_of_the_child_only(monkeypatch):
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Atom")
    for name, variables in SETTINGS.items():
        assert set(variables) <= DISPATCH_VARIABLES, name
        env = child_env(name)
        assert {key: env.get(key) for key in DISPATCH_VARIABLES} == {
            key: None for key in DISPATCH_VARIABLES} | ONE_THREAD | variables
        assert env["PYTHONPATH"] == str(ROOT / "src")
    assert all((ROOT / path).is_file() for path in TESTS)


def test_failed_ids_reads_the_short_summary():
    stdout = "\n".join([
        "..F.E                                                            [100%]",
        "=================================== FAILURES ===================================",
        "E       AssertionError: FAILED appears inside a message",
        "=========================== short test summary info ============================",
        "FAILED tests/test_golden.py::test_net_run_matches_golden[sfw] - AssertionError: x",
        "FAILED tests/test_engine.py::test_run_matches_per_block_engine - assert 1 == 2",
        "ERROR tests/test_demos.py::test_demo_output[geometry] - OSError",
        "1 failed, 3 passed, 1 error in 0.50s",
    ])
    assert failed_ids(stdout) == ["tests/test_golden.py::test_net_run_matches_golden[sfw]",
                                  "tests/test_engine.py::test_run_matches_per_block_engine",
                                  "tests/test_demos.py::test_demo_output[geometry]"]
    assert failed_ids("5 passed in 0.10s\n") == []
