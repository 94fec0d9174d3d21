"""Command-line interface: verbs, formats, exit codes, determinism."""

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from artifact import pages
from artifact.actions import oracle_crosscheck
from artifact.cli import main, build_parser
from artifact.pages import (
    e2_ranks, chain_check, collapse_check, verify_generators,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_series_table(capsys):
    code, out = run_cli(capsys, "series", "--space", "sp:2,2",
                        "--max-degree", "8")
    assert code == 0
    assert out.strip() == "1,0,0,0,1,0,0,0,2"


def test_series_csv(capsys):
    code, out = run_cli(capsys, "series", "--space", "ap:2,2",
                        "--max-degree", "8", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["0,0", "1,0", "2,0", "3,0", "4,1",
                                "5,0", "6,0", "7,0", "8,1"]


def test_series_b_space(capsys):
    code, out = run_cli(capsys, "series", "--space", "b:4",
                        "--max-degree", "8")
    assert code == 0
    assert out.strip() == "1,0,0,0,1,0,0,0,2"


def test_e2_csv_spots(capsys):
    code, out = run_cli(capsys, "e2", "--dim", "4", "--r", "inf",
                        "--max-degree", "16", "--format", "csv")
    assert code == 0
    rows = dict(line.split(",") for line in out.splitlines())
    assert rows["4"] == "1" and rows["13"] == "1" and rows["5"] == "0"


def test_e2_json_shape(capsys):
    code, out = run_cli(capsys, "e2", "--dim", "4", "--r", "2",
                        "--max-degree", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"dim", "r", "max_degree", "series", "report"}
    assert payload["dim"] == 4 and payload["r"] == 2
    assert payload["series"][0] == 1
    assert all(cell["e2"] >= 0 for cell in payload["report"])


def test_e1_column(capsys):
    code, out = run_cli(capsys, "e1", "--dim", "4", "--column", "1",
                        "--max-degree", "13")
    assert code == 0
    assert out.strip() == "0,0,0,0,0,3,0,0,0,4,0,0,0,7"


def test_generators_table(capsys):
    code, out = run_cli(capsys, "generators", "--dim", "4",
                        "--max-degree", "14")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0].split() == ["5", "sigma(1)"]


@pytest.mark.parametrize("dim, fmt, digest", [
    (1, "json", "a88e40fe4fc31c10ad284e76e157a5405bd27d8588db6a1bcd9db9cf07965f06"),
    (1, "table", "822b2261f3b11c443a65752c7fd3cea7c33e9d103fd07c293234803b4ccd5dcc"),
    (2, "json", "7878a175c1c3dca2aa03df0ceb3555a9ebe7e668004339dc8f458cae14597c48"),
    (2, "table", "7faf8fe00d380937a9e8da3efeb43eac037df429ba08cab948a996a284ccaff1"),
    (3, "json", "ad6e25d16d3ccf90ce361f8692c5147adf46156431685c34b241427d48bff05e"),
    (3, "table", "b666624dddeab0e319249c6645f497aad947b73693f672cb1cbdf86b478472be"),
    (4, "json", "2a5e894ba159f0173cc2e4b52dcb03355f71ae363de24df298307efe60b68c21"),
    (4, "table", "99d1532291276505eb5f42b6d30fe2287c7a1ea7f3feeb8a36e67714836b510e"),
    (5, "json", "a58c9130bca48a8913f9cc8aaf62b74913a088df66c65d293b2a5b7dcd24bd41"),
    (5, "table", "54bdb0826a11dd998c81b1ced6f1eb13de9f873f4176e87b45d76924e1c7e5a7"),
    (6, "json", "e9bf48ea62453a383197cf1ffa55b8ef8a9142d5fbdb31c731f62bca3dc10726"),
    (6, "table", "fce382b1a9fd5ff32ef83d11dac1378b529c73946a03759cfd658d63d5b66a15"),
    (7, "json", "8535d3df147f779e807aa38722e919a663d8d6a349b880b2f855b36903fe8c48"),
    (7, "table", "d7e474f43e0590dc55f9f200e47a50a931c325e28c8c5bbe2b55167389c165ce"),
    (8, "json", "5b12a1d9aff18bd80b4c54b4913f809629d51b816ef5e520e4998573b27ffd45"),
    (8, "table", "669833c8686e5f7534f25e1e3ccee2bcb39b1b3439699c36e578e466f49f98dd"),
    (9, "json", "b5cee638a8a99035bbeacdb84df49787e2b8f80c2a379e48f051464213c0cc8f"),
    (9, "table", "fa576032e1727fad9da506f27edf653c191a9cd97b26d8e2e7dec492a5c9329f"),
    (10, "json", "81a9e77912b55e869839afa4ab64e6a4b36cfa07d3e99e36e3ee8424ec7436f5"),
    (10, "table", "8564fe5777a4d413111dea0a75c9b80831e30cc9dd531d2f4a904cc3f31487c8"),
    (11, "json", "97888143cbe86db948f145715ad72419d246eecb53727dd97da34ddeabcf7fce"),
    (11, "table", "a2a951c7e1b54a15aa0e1ff04546ca668d717d1e5e3c68686876caeb25b679e1"),
    (12, "json", "b42b6e58aea2f73eee3959d741978268748d77ec5d538b339fc5585648cfa7d3"),
    (12, "table", "1dbc78a03fb1d15843df10140b49e43a090fb37f057edec31e2aedc92105ec9f"),
])
def test_generators_bytes_are_pinned(capsys, dim, fmt, digest):
    # the class labels print term dicts through poly_str; these pins
    # guard every byte of every label kind: tau, sigma (skew for odd d,
    # Whitney images for even d), I, and I_top at d = 3 mod 4
    code, out = run_cli(capsys, "generators", "--dim", str(dim),
                        "--max-degree", "60", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("dim, degree, code, digest", [
    (1, 40, 0, "bd3dd7a22e7f8372eed7d5037f3a26b31a2b467a0785688f74327bd37e4a149a"),
    (2, 40, 0, "8c5a36f1047fe02a7d75c99f08adb3da6341216407463bac0405d8b941fed0df"),
    (3, 40, 0, "2e321db683c19d0d1e9f0ead2bb6c50264c8570ac791f01720cdf8c10f209b00"),
    (4, 40, 0, "15ab3dd299c77422b3c9b8c5242789a4f612c703c5c5d02eef0654aa8907e0d2"),
    (5, 40, 0, "e9861a6f07f6226d83711479523571015ecba1b104e1ceb64aeec1e3ad47e41c"),
    (6, 40, 0, "0cbcad548c4cf12585fa2e72e159b4e12a6893754c28bb7bd22a1661331d8566"),
    (7, 40, 0, "8d61a9468624c6533871bead817f93646f13c9678a389a4b6c2254d17ebc2ba2"),
    (8, 40, 1, "7509ac5e95f37f75e8f87e6d598cfa70bf34fe8a07d31a518d112f2ed307a7c8"),
    (9, 40, 0, "739e520912d83071338fb23c85e22ab5e973aa04e4f1ef34c745634c7a4b9e56"),
    (10, 40, 1, "ff734bb0e2dbad05f55ca7ff2f8047599622a91e23d53da4e370a0b7f945ac11"),
    (11, 40, 0, "8ead8d8c2ba27861f9b8bbbc6a39cc66dc990a08b5e3f24e8cabce7c9a15ebbe"),
    (12, 40, 1, "fe8d56645d83de804ad38a81fb6a3d7d616b27a26a6eaa3ef9dade7e3023bfa5"),
    (7, 80, 0, "97fbd4c2faa3fb19fe5bde290edb4a65d12b3fb484373fb63e5732dc8e8cd5d5"),
    (8, 60, 1, "8f8851b743e32c660740f76ddf4b741a5cc31f2e7662e4f8fc4ec37100325113"),
])
def test_verify_json_bytes_are_pinned(capsys, dim, degree, code, digest):
    # every entry and detail of the battery, including the even-d
    # generator-span failures, at the sizes the benchmark certifies
    got, out = run_cli(capsys, "verify", "--dim", str(dim), "--max-degree",
                       str(degree), "--format", "json")
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("dim, r, offset, digest", [
    (1, "1", 0, "8a79cd9cff9b8cde1af024f4a2a64bc82bc4139197ff485229b812226a5fb6eb"),
    (1, "inf", 0, "366ab33665e93e5b27b443bc1d002d1d4f09711ed6b5c8b28a29eceea4452a26"),
    (2, "1", 0, "27d3e4c6d71bdeb17834a19c0d9a573195a379b669b71dd8162bf6767984e5bb"),
    (2, "inf", 0, "30c0f88f00fa403d0e8cd130b89e5fd0d83e240c701770edb334d5278e38a859"),
    (3, "1", 0, "b51b99a8c4c1249f0fa3a6226b59016e5e3c7175af8780d21c4a55b5822fd111"),
    (3, "inf", 0, "28ea5302cab3be12d4ee006449450ba2c889d49b4d010921f5c6642bea59ad9e"),
    (4, "1", 0, "391cf61f5b77a31bdbba573221d5f427d20ccb309c489f81bdffc3321e6c49e1"),
    (4, "inf", 0, "c18d06ea9b7318f4f5b2d4a9ffb59e288d85eb3e595559744bcc60e67350f82f"),
    (5, "1", 0, "a59fc2baf6486011417bc1266f54955398dd937ab13aa397392b2a060d224507"),
    (5, "inf", 0, "bd87f32eedb74dbbf2c7cfb9e7b93f4634fa0d5f05e61ac0edec611f87589434"),
    (6, "1", 0, "5a2083dfa6a76f7e0e59930cfb4e4225820178a03425a41e58eda109e6f7b09b"),
    (6, "inf", 0, "a9dcfd81c7be51c6f596c5f7e323e4a8d1ac0936ace92cf17cfe0f452d38b956"),
    (7, "1", 0, "ffb5fbc6b5adb060e9276ddfaaba400f1ddfd2c77f626cbb9177b825707403b3"),
    (7, "inf", 0, "4ccf5b0bfb9196b7ff3aad6f1152b25ce23bb27498a6a69624276f9e2c622a85"),
    (8, "1", 0, "733637819ca2a48dd7b88d13737aa096dc353b4bc6b651635aa79391a837e68d"),
    (8, "inf", 0, "1ea8bf2313f6e1b9f7b2fdbc3008b8b088dd0a934a84aea70baf9e4971b2fbf1"),
    (9, "1", 0, "6e4af522cc5f65e47c980028321cb396d872d5b6ac677ab73205bf4d5afe786a"),
    (9, "inf", 0, "11de9246e8132753709f1d4ea1f6176125e8632d6019ee53a06eb13e0b3e6f61"),
    (10, "1", 0, "320476b540c5dd0879c0c3a1761bd1e07b5dec55cb34cc4646795fb0aca38e97"),
    (10, "inf", 0, "fd7973bc9510487f2738d5f4d73424fae27fe1d4854551b269e9f3b2fee7a2c7"),
    (11, "1", 0, "2474d9b8f04436a3429e911e7ebded33d037598c287ce1b92aa5b9e5ed36e992"),
    (11, "inf", 0, "f75473fbad247e26d674ea01ec0595ad19616bab345096384c7d6d0e9eaf3d1a"),
    (12, "1", 0, "c0157866835a1c4fef5ca19dbad10802b1806aa83a844c46e52892f669955c22"),
    (12, "inf", 0, "fb7ea941eb2341be7ac42ba71f404131968c49396e8d34540a1c7de34215d8a8"),
    (6, "2", 2, "2e3629d5906a1365fe27c6dbcb0fc42afce4521a8397cc7a00eb6f343b691ab2"),
])
def test_loopspace_json_bytes_are_pinned(capsys, dim, r, offset, digest):
    # the loop-space series expand thousands of second-page generators
    # at D = 100; every coefficient byte is pinned
    code, out = run_cli(capsys, "loopspace", "--dim", str(dim), "--r", r,
                        "--max-degree", "100", "--offset", str(offset),
                        "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oracle_ok(capsys):
    code, out = run_cli(capsys, "oracle", "--dim", "5", "--level", "2",
                        "--max-degree", "16")
    assert code == 0
    assert all(line.startswith("ok") for line in out.splitlines())


def test_loopspace_json(capsys):
    code, out = run_cli(capsys, "loopspace", "--dim", "4", "--r", "1",
                        "--max-degree", "10", "--offset", "2",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["series"][0] == 1


def test_verify_passes(capsys):
    code, out = run_cli(capsys, "verify", "--dim", "4",
                        "--max-degree", "16")
    assert code == 0
    assert "FAIL" not in out
    assert "ok   chain condition" in out


def test_verify_even_dimension_fails_at_the_generator_span(capsys):
    code, out = run_cli(capsys, "verify", "--dim", "8", "--max-degree", "40")
    assert code == 1
    assert out.splitlines()[-1] == (
        "FAIL generators: remaining classes span E2 column 1 "
        "(degree 17: classes give 0, page gives 1)")


@pytest.fixture
def fresh_grid():
    pages.clear_cache()
    yield
    pages.clear_cache()


_CHECKS_BEFORE_COLLAPSE = ["ok   oracle level %d" % level for level in range(1, 8)] + [
    "ok   chain condition d(d(x)) = 0"]


def test_verify_reports_a_negative_e2_after_the_collapse_entries(
        capsys, monkeypatch, fresh_grid):
    # counting fixed swap orbits p_i p'_i as _S rather than _S - _A
    # overcounts columns >= 2 (the fold column gives them rank 0): the
    # collapse check names the columns, and the e2 >= 0 guard that trips
    # afterwards becomes one more FAIL entry
    real_S, real_A = pages._S, pages._A
    monkeypatch.setattr(pages, "_S",
                        lambda a, b, D: real_S(a, b, D) + real_A(a, b, D))
    code = main(["verify", "--dim", "4", "--max-degree", "40"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert out.splitlines() == _CHECKS_BEFORE_COLLAPSE + [
        "ok   collapse column 2 exact",
        "FAIL collapse column 3 exact (degree 23: counted rank 5, assembled rank 4)",
        "FAIL collapse column 4 exact (degree 20: counted rank 6, assembled rank 5)",
        "FAIL collapse column 5 exact (degree 21: kernel 5, image 6)",
        "ok   column 1 counted rank exact",
        "FAIL exactness guards hold (image exceeds kernel at column 4 degree 20)"]


def test_verify_reports_a_short_d0_sub_block(capsys, monkeypatch, fresh_grid):
    # the column-0 certificate raises from the grid, which the collapse
    # check builds first; the checks before it keep their entries
    real = pages.s_hom
    monkeypatch.setattr(pages, "s_hom", lambda m, target: (
        {} if target.na == 0 and m == ((0, 1), ()) else real(m, target)))
    code = main(["verify", "--dim", "4", "--max-degree", "40"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert out.splitlines() == _CHECKS_BEFORE_COLLAPSE + [
        "FAIL exactness guards hold (d0 sub-block is not of full rank at degree 12)"]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_verify_reports_an_image_outside_the_target_basis(flags):
    # the even-column rule with its first image term raised by one p'_1:
    # the first leg of each block maps m to m p'_1, which leaves the target
    # basis, and the assembly every check reads names it
    import artifact
    code = (
        "import sys\n"
        "from artifact import differentials\n"
        "from artifact.cli import main\n"
        "real = differentials._even_col_legs\n"
        "def raised(d, s, piece):\n"
        "    legs = real(d, s, piece)\n"
        "    if legs:\n"
        "        t, tpiece, coef, move, swap = legs[0]\n"
        "        def up(m):\n"
        "            es, fs = move(m)\n"
        "            return es, (fs[0] + 1,) + fs[1:]\n"
        "        legs[0] = (t, tpiece, coef, up, swap)\n"
        "    return legs\n"
        "differentials._even_col_legs = raised\n"
        "sys.exit(main(['verify', '--dim', '4', '--max-degree', '30']))\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(artifact.__file__)))
    proc = subprocess.run([sys.executable] + flags + ["-c", code],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "ok   oracle level %d" % level for level in range(1, 8)] + [
        "FAIL exactness guards hold (U+_{0,4,3}.e.p'_1 is not in the basis "
        "of column 3 degree 11)"]


def test_verify_json_rows_are_the_library_entries(capsys):
    d, D = 8, 40
    code, out = run_cli(capsys, "verify", "--dim", str(d), "--max-degree",
                        str(D), "--format", "json")
    assert code == 1
    entries = [("oracle level %d" % level, oracle_crosscheck(d, level, D).ok, "")
               for level in range(1, 8)]
    entries += chain_check(d, D).entries + collapse_check(d, D).entries
    entries.append(("closed form matches computed ranks",
                    e2_ranks(d, "inf", D).mismatch is None, ""))
    entries += verify_generators(d, D).entries
    assert json.loads(out)["report"] == [
        {"check": name, "ok": ok, "detail": detail}
        for name, ok, detail in entries]


@pytest.mark.parametrize("space", ["q:1,2", "p1,2", "b:0", "p:-1,2", "p:1"])
def test_bad_space_is_usage_error(capsys, space):
    # no colon, an unknown kind, a dimension below 1, a negative rank and a
    # missing rank all exit 2 with a message naming the fault
    code = main(["series", "--space", space, "--max-degree", "8"])
    assert code == 2
    want = ("space must look like p:a,b" if ":" not in space
            else "bad space %r" % space)
    assert want in capsys.readouterr().err


def test_bad_r_is_usage_error(capsys):
    for r in ["0", "-1", "2.5", "1e3", "", " inf", "infinity"]:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["e2", "--dim", "4", "--r", r])
        assert exc.value.code == 2
        assert "r must be a positive integer or inf" in capsys.readouterr().err


def _subparsers(ap):
    return next(a for a in ap._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_a_one_verb_parser_prints_what_the_full_parser_prints():
    # main builds only the asked verb's subparser; its help and usage, and
    # the top-level usage an unrecognized argument prints, stay the same
    full = build_parser()
    verbs = _subparsers(full)
    assert list(verbs) == ["series", "e1", "e2", "generators", "oracle",
                           "verify", "loopspace"]
    for verb, p in verbs.items():
        one = build_parser(verb)
        assert list(_subparsers(one)) == [verb]
        assert one.format_usage() == full.format_usage()
        q = _subparsers(one)[verb]
        assert (q.format_help(), q.format_usage()) == (p.format_help(), p.format_usage())


@pytest.mark.parametrize("argv", [
    ["e2", "--dim", "0"],
    ["e2", "--dim", "4", "--max-degree", "-1"],
    ["oracle", "--dim", "4", "--level", "0"],
    ["e1", "--dim", "4", "--column", "-1"],
    ["verify", "--dim", "0"],
    ["generators", "--dim", "0"],
    ["loopspace", "--dim", "6", "--offset", "-5"],
    ["e2", "--dim", "4", "--max-degree", "x"],
])
def test_out_of_range_is_usage_error(capsys, argv):
    # argparse rejects the range checks; the offset is checked by the
    # library against the computed generator degrees
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    want = "to degree -1, below 1" if argv[0] == "loopspace" else "must be an integer"
    assert want in capsys.readouterr().err


def test_out_flag(tmp_path, capsys):
    path = tmp_path / "series.txt"
    code, _ = run_cli(capsys, "series", "--space", "p:2,3",
                      "--max-degree", "8", "--out", str(path))
    assert code == 0
    assert path.read_text().strip() == "1,0,0,0,2,0,0,0,3"


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x"
    code = main(["e2", "--dim", "4", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_closed_stdout_is_a_usage_error():
    # a reader that stops after one line (| head -1) closes the pipe while
    # the verb writes 450 kB, several times a pipe's buffer, so the write
    # fails: one error line, no traceback, and the usage exit code
    import artifact
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(artifact.__file__)))
    with subprocess.Popen(
            [sys.executable, "-m", "artifact", "generators", "--dim", "11",
             "--max-degree", "80"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert first == "  16  sigma(p_1 - p'_1)\n"
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["oracle", "--dim", "4", "--level", "2"],
    ["verify", "--dim", "8", "--max-degree", "30"],
])
def test_csv_report_rows_parse_as_three_fields(capsys, argv):
    # stratum names like A_2(1,3) and the span FAIL detail hold commas
    code, out = run_cli(capsys, *argv, "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows and all(len(row) == 3 for row in rows)
    assert any("," in field for row in rows for field in row)


def test_byte_determinism(capsys):
    args = ["e2", "--dim", "5", "--r", "3", "--max-degree", "14",
            "--format", "json"]
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "artifact", "series", "--space", "sp:2,2",
         "--max-degree", "8"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1,0,0,0,1,0,0,0,2"
