"""The project's pytest settings report every failure, Hypothesis failures included."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_lets_later_tests_run(pytester):
    # A failing @given test makes Hypothesis import libcst, which warns with a
    # DeprecationWarning; under "error::DeprecationWarning" alone that ended the
    # session with an INTERNALERROR before the second test ran.
    pytester.makefile(".toml", pyproject=PYPROJECT.read_text())
    pytester.makepyfile(test_two="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("test_two.py", "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
