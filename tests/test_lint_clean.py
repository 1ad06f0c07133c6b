"""The lint gate: the source tree must be clean of repro.check rules.

This is the CI hook the ISSUE calls for -- any rule violation in
``src/`` fails the ordinary test run, so nondeterminism and invariant
hazards are caught at review time.  Waive a deliberate exception in
place with ``# repro: allow[rule-id]`` (see docs/checking.md), never by
editing this test.
"""


def test_source_tree_is_lint_clean(tree_checks):
    report = tree_checks.lint
    assert report.files_checked > 100
    assert report.clean, (
        "repro.check lint violations (fix or pragma-waive in place):\n"
        + report.render())
