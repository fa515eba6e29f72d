"""tools/reference_digest.py --diff: per workload and algorithm counts of
the fits whose digests differ between two digest files."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "reference_digest", os.path.join(ROOT, "tools", "reference_digest.py")
)
reference_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reference_digest)


def test_diff_counts_the_fits_that_differ_in_each_column(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("w 0 0 tca x s\nw 0 1 jda y t\nw 1 0 tca x s\n")
    b.write_text("w 0 0 tca x s\nw 0 1 jda z t\n")
    assert reference_digest.main(["--diff", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "workload algorithm fits digest_differs stable_differs",
        # the fit only a holds differs in both columns
        "w tca 2 1 1",
        "w jda 1 1 0",
        "total - 3 2 1",
    ]
