import re
import struct

import numpy as np
import pytest

from nfar import cli
from nfar.blocks import FIRST_BLOCK
from nfar.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from nfar.io import load_checkpoint, load_dataset, read_latents, save_checkpoint, save_dataset
from nfar.model import DenoiserConfig, init_params
from nfar.synthdata import Dataset


def run(argv):
    return main(argv)


def test_data_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["data", "--out", str(a), "--seed", "7", "--sequences", "3", "--frames", "22"]) == EXIT_OK
    assert run(["data", "--out", str(b), "--seed", "7", "--sequences", "3", "--frames", "22"]) == EXIT_OK
    for name in ("seq_00000.bin", "encoder.bin", "manifest.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_zero_steps_checkpoint_equals_init(tmp_path):
    ds = tmp_path / "ds"
    run(["data", "--out", str(ds), "--seed", "1", "--sequences", "2", "--frames", "22"])
    out = tmp_path / "run"
    assert run(["train", "--data", str(ds), "--out", str(out), "--stage", "1",
                "--steps", "0", "--seed", "3"]) == EXIT_OK
    saved = load_checkpoint(out / "model.ckpt")
    fresh = init_params(saved.config, seed=3)
    assert all(np.array_equal(saved.values[k], fresh.values[k]) for k in fresh.values)


def test_train_zero_steps_reports_no_final_loss(tmp_path, capsys):
    ds = tmp_path / "ds"
    run(["data", "--out", str(ds), "--seed", "1", "--sequences", "2", "--frames", "22"])
    capsys.readouterr()
    assert run(["train", "--data", str(ds), "--out", str(tmp_path / "run"), "--steps", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "done: 0 steps" in out and "loss" not in out


def test_train_stage2_requires_init(tmp_path, capsys):
    ds = tmp_path / "ds"
    run(["data", "--out", str(ds), "--seed", "1", "--sequences", "2", "--frames", "22"])
    code = run(["train", "--data", str(ds), "--out", str(tmp_path / "x"), "--stage", "2",
                "--steps", "1"])
    assert code == EXIT_USAGE


def test_generate_writes_latents_and_report(tmp_path, capsys):
    ds = tmp_path / "ds"
    run(["data", "--out", str(ds), "--seed", "1", "--sequences", "2", "--frames", "22"])
    ck = tmp_path / "ck"
    run(["train", "--data", str(ds), "--out", str(ck), "--stage", "1", "--steps", "2"])
    out = tmp_path / "gen"
    assert run(["generate", "--ckpt", str(ck / "model.ckpt"), "--out", str(out),
                "--blocks", "4", "--steps", "2", "--seed", "5"]) == EXIT_OK
    latents = read_latents(out / "latents.bin")
    assert latents.shape == (30, 16)
    report = (out / "report.csv").read_text().strip().splitlines()
    assert report[0] == "block,seconds,context_chunks,context_floats,roll_seconds"
    assert len(report) == 5
    for line in report[1:]:
        _, seconds, _, _, roll = line.split(",")
        assert 0.0 <= float(roll) <= float(seconds)  # the block time includes its rolls
    captured = capsys.readouterr().out
    assert "context chunks per block: [2, 4, 6, 6]" in captured
    assert "setup time: " in captured


def test_train_blocks_not_matching_the_frames_is_usage_error(tmp_path, capsys):
    ds = tmp_path / "ds"
    run(["data", "--out", str(ds), "--seed", "1", "--sequences", "2", "--frames", "22"])
    assert run(["train", "--data", str(ds), "--out", str(tmp_path / "x"), "--steps", "0",
                "--blocks", "2"]) == EXIT_USAGE


def test_train_refuses_a_dataset_shorter_than_the_first_block(tmp_path, capsys):
    # With no --blocks, the inferred plan started with a full first block
    # anyway and failed inside training on a plan the user never gave.
    ds, out = tmp_path / "ds", tmp_path / "x"
    run(["data", "--out", str(ds), "--seed", "1", "--sequences", "2", "--frames", str(FIRST_BLOCK - 2)])
    capsys.readouterr()
    assert run(["train", "--data", str(ds), "--out", str(out), "--steps", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"sequences of {FIRST_BLOCK - 2} frames" in err and f"at least {FIRST_BLOCK}" in err
    assert "plan chunks" not in err and "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("damage", ["truncated_file", "manifest_sizes"])
def test_train_rejects_a_damaged_dataset(tmp_path, capsys, damage):
    ds = tmp_path / "ds"
    run(["data", "--out", str(ds), "--seed", "1", "--sequences", "2", "--frames", "22"])
    if damage == "truncated_file":
        (ds / "seq_00001.bin").write_bytes((ds / "seq_00001.bin").read_bytes()[:10])
    else:
        text = (ds / "manifest.txt").read_text()
        (ds / "manifest.txt").write_text(text.replace("n_frames = 22", "n_frames = 30")
                                         .replace("latent_dim = 16", "latent_dim = 9"))
    assert run(["train", "--data", str(ds), "--out", str(tmp_path / "x"), "--steps", "1"]) == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["latent_u32_max", "latent_2_24_squared", "negative_n_sequences",
                                    "negative_n_frames", "negative_latent_dim"])
def test_train_refuses_sizes_the_dataset_files_do_not_hold(tmp_path, capsys, damage):
    # Sizes read from a dataset are checked against the files before anything that large is read.
    ds = tmp_path / "ds"
    run(["data", "--out", str(ds), "--seed", "1", "--sequences", "2", "--frames", "22"])
    if damage.startswith("latent"):
        claim = (2**32 - 1, 2**32 - 1) if damage == "latent_u32_max" else (2**24, 2**24)
        seq = ds / "seq_00001.bin"
        blob = seq.read_bytes()
        seq.write_bytes(blob[:8] + struct.pack("<II", *claim) + blob[16:])
        message = f"seq_00001.bin: payload size does not match header \\({claim[0]}x{claim[1]}\\)"
    else:
        key = damage[len("negative_"):]
        text = (ds / "manifest.txt").read_text()
        (ds / "manifest.txt").write_text(re.sub(f"{key} = \\d+", f"{key} = -1", text))
        message = f"manifest {key} is negative"
    capsys.readouterr()
    assert run(["train", "--data", str(ds), "--out", str(tmp_path / "x"), "--steps", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert re.match(f"error: .*{message}", err) and err.count("\n") == 1, err
    assert not (tmp_path / "x").exists()


def test_generate_refuses_a_checkpoint_claiming_many_layers_in_one_short_line(tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, init_params(DenoiserConfig(), seed=0))
    ckpt.write_bytes(ckpt.read_bytes().replace(b"config.n_layers = 2\n", b"config.n_layers = 20000\n", 1))
    capsys.readouterr()
    assert run(["generate", "--ckpt", str(ckpt), "--out", str(tmp_path / "gen"),
                "--blocks", "1", "--steps", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 1024, len(err)


BIG = "x" * 2**20  # a 1 MB name, line or value


@pytest.mark.parametrize("site", ["config_field", "tensor_line", "manifest_line", "tensor_name", "config_value",
                                  "config_file_line", "config_file_key", "delta_u", "residual_bound",
                                  "lipschitz_render", "lipschitz_encoder"])
def test_a_megabyte_in_a_file_is_echoed_in_one_short_line(tmp_path, capsys, site):
    ckpt, cfg, out = tmp_path / "m.ckpt", tmp_path / "run.cfg", tmp_path / "gen"
    save_checkpoint(ckpt, init_params(DenoiserConfig(d_model=16, d_ff=16), seed=0))
    argv = ["generate", "--ckpt", str(ckpt), "--out", str(out), "--blocks", "1", "--steps", "1"]
    if site in ("delta_u", "residual_bound", "lipschitz_render", "lipschitz_encoder"):  # a dataset manifest number
        ds = tmp_path / "ds"
        run(["data", "--out", str(ds), "--seed", "1", "--sequences", "2", "--frames", "22"])
        text = (ds / "manifest.txt").read_text()
        (ds / "manifest.txt").write_text(re.sub(f"{site} = .*", f"{site} = {BIG}", text))
        argv = ["train", "--data", str(ds), "--out", str(out), "--steps", "1"]
    edits = {"config_field": ("config.n_layers = 2\n", f"config.{BIG} = 2\n"),
             "tensor_line": ("tensor output.b ", f"tensor output.b {BIG} "),
             "manifest_line": ("payload\n", f"{BIG}\npayload\n"),
             "tensor_name": ("tensor output.b ", f"tensor output.b{BIG} "),
             "config_value": ("config.rope_base = 10000.0\n", f"config.rope_base = {BIG}\n")}
    if site in edits:
        old, new = (text.encode() for text in edits[site])
        assert old in ckpt.read_bytes()
        ckpt.write_bytes(ckpt.read_bytes().replace(old, new, 1))
    cfg.write_text({"config_file_line": f"{BIG}\n", "config_file_key": f"{BIG} = 1\n"}.get(site, "seed = 1\n"))
    capsys.readouterr()
    assert exit_code(["--config", str(cfg), *argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 1024, err[:200]
    assert "characters)" in err and not out.exists()


@pytest.mark.parametrize("where", ["config_file", "argv"])
def test_a_megabyte_flag_value_is_echoed_clipped(tmp_path, capsys, where):
    cfg, digits = tmp_path / "run.cfg", "1" * 2**20
    cfg.write_text(f"seed = {digits}\n")
    argv = ["--config", str(cfg)] if where == "config_file" else []
    argv += ["data", "--out", str(tmp_path / "ds")] + (["--seed", digits] if where == "argv" else [])
    assert exit_code(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err) <= 1024 and "characters)" in err and "invalid int value" in err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("damage", ["missing", "misshaped", "zero_heads", "nan_rope_base"])
def test_generate_rejects_a_damaged_checkpoint(tmp_path, capsys, damage):
    params = init_params(DenoiserConfig(d_model=16, d_ff=16), seed=0)
    if damage == "missing":
        del params.values["output.w"]
    elif damage == "misshaped":
        params.values["output.b"] = np.zeros(params.config.d_latent + 1)
    save_checkpoint(tmp_path / "bad.ckpt", params)
    if damage == "zero_heads":
        blob = (tmp_path / "bad.ckpt").read_bytes()
        (tmp_path / "bad.ckpt").write_bytes(blob.replace(b"config.n_heads = 2", b"config.n_heads = 0", 1))
    if damage == "nan_rope_base":  # a format error, not non-finite velocities (exit 3) at generation
        blob = (tmp_path / "bad.ckpt").read_bytes()
        (tmp_path / "bad.ckpt").write_bytes(blob.replace(b"config.rope_base = 10000.0", b"config.rope_base = nan", 1))
    capsys.readouterr()
    assert run(["generate", "--ckpt", str(tmp_path / "bad.ckpt"), "--out", str(tmp_path / "gen"),
                "--blocks", "1", "--steps", "1"]) == EXIT_USAGE
    if damage == "nan_rope_base":
        err = capsys.readouterr().err
        assert "bad config" in err and "rope_base" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["generate", "train_init"])
@pytest.mark.parametrize("n_ref", [3, 0, -1])
def test_checkpoint_with_another_reference_count_is_refused(tmp_path, capsys, command, n_ref):
    # Generation streams exactly two reference chunks, so a checkpoint configured for any other count is
    # a bad config, not a model that trained with one count and streams with another.
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, init_params(DenoiserConfig(), seed=0))
    line = b"config.n_ref_chunks = 2\n"
    assert line in ckpt.read_bytes()
    ckpt.write_bytes(ckpt.read_bytes().replace(line, f"config.n_ref_chunks = {n_ref}\n".encode(), 1))
    out = tmp_path / "out"
    if command == "generate":
        argv = ["generate", "--ckpt", str(ckpt), "--out", str(out), "--blocks", "2", "--steps", "1"]
    else:
        ds = tmp_path / "ds"
        run(["data", "--out", str(ds), "--seed", "1", "--sequences", "2", "--frames", "22"])
        argv = ["train", "--data", str(ds), "--out", str(out), "--steps", "1", "--init", str(ckpt)]
    capsys.readouterr()
    assert exit_code(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "bad config" in err and "n_ref_chunks" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--reps", "0"], ["--reps", "-2"], ["--blocks", "3"]])
def test_bench_rejects_runs_it_cannot_measure(tmp_path, capsys, flags):
    save_checkpoint(tmp_path / "m.ckpt", init_params(DenoiserConfig(d_model=16, d_ff=16), seed=0))
    out = tmp_path / "new" / "b"
    assert exit_code(["bench", "--ckpt", str(tmp_path / "m.ckpt"), "--out", str(out), *flags]) == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "new").exists()  # refused before any directory is made


def test_bench_writes_every_mode_and_the_roll_cost(tmp_path, capsys):
    save_checkpoint(tmp_path / "m.ckpt", init_params(DenoiserConfig(d_model=16, d_ff=16), seed=0))
    out = tmp_path / "b"
    assert run(["bench", "--ckpt", str(tmp_path / "m.ckpt"), "--out", str(out),
                "--blocks", "4", "--reps", "1"]) == EXIT_OK
    rows = (out / "bench.csv").read_text().strip().splitlines()
    assert rows[0] == "block,mode,median_seconds"
    assert sorted(row.split(",")[1] for row in rows[1:]) == sorted(
        ["convkv", "no-compression-ops", "unbounded"] * 4)
    assert "conv roll cost over subsample: " in capsys.readouterr().out


def test_verify_emits_check_lines(capsys):
    assert run(["verify", "mask"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("CHECK mask PASS")


def test_verify_unknown_check_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "nonsense"])
    assert exc.value.code == EXIT_USAGE


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["data", "--out", "x", "--bogus", "1"])
    assert exc.value.code == EXIT_USAGE


def test_zeroshot_refuses_causal_checkpoint(tmp_path, capsys):
    ds = tmp_path / "ds"
    run(["data", "--out", str(ds), "--seed", "1", "--sequences", "2", "--frames", "22"])
    ck = tmp_path / "ck"
    run(["train", "--data", str(ds), "--out", str(ck), "--stage", "1", "--steps", "1"])
    code = run(["zeroshot", "--ckpt", str(ck / "model.ckpt"), "--seeds", "1", "--blocks", "3"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_zeroshot_refuses_fewer_than_one_seed(tmp_path, capsys, seeds):
    # With no seed to run, zeroshot printed only its CSV header and exited 0.
    save_checkpoint(tmp_path / "m.ckpt", init_params(DenoiserConfig(d_model=16, d_ff=16), seed=0))
    assert exit_code(["zeroshot", "--ckpt", str(tmp_path / "m.ckpt"), "--seeds", seeds]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"--seeds: must be at least 1, got {seeds}" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("blocks", ["1", "0"])
def test_zeroshot_refuses_fewer_than_two_blocks(tmp_path, capsys, monkeypatch, blocks):
    # With one block there is no boundary to score: zeroshot generated a
    # whole variant and only then failed in discontinuity_score.
    save_checkpoint(tmp_path / "m.ckpt", init_params(DenoiserConfig(d_model=16, d_ff=16), seed=0))
    monkeypatch.setattr(cli, "zero_shot_experiment", lambda *a, **k: pytest.fail("zeroshot ran the model"))
    assert exit_code(["zeroshot", "--ckpt", str(tmp_path / "m.ckpt"), "--blocks", blocks]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"--blocks: must be at least 2, got {blocks}" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_zeroshot_reports_three_variants(tmp_path, capsys):
    ds = tmp_path / "ds"
    run(["data", "--out", str(ds), "--seed", "1", "--sequences", "2", "--frames", "22"])
    ck = tmp_path / "ck"
    run(["train", "--data", str(ds), "--out", str(ck), "--stage", "1", "--steps", "1",
         "--mask", "none"])
    capsys.readouterr()
    assert run(["zeroshot", "--ckpt", str(ck / "model.ckpt"), "--seeds", "2",
                "--blocks", "3", "--steps", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "variant,median_discontinuity"
    assert len(lines) == 4


def test_config_file_sets_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\nsequences = 2\n")
    a = tmp_path / "a"
    assert run(["--config", str(cfg), "data", "--out", str(a), "--frames", "22"]) == EXIT_OK
    b = tmp_path / "b"
    assert run(["data", "--out", str(b), "--seed", "9", "--sequences", "2",
                "--frames", "22"]) == EXIT_OK
    assert (a / "seq_00001.bin").read_bytes() == (b / "seq_00001.bin").read_bytes()
    echoed = (a / "config.txt").read_text()
    assert "seed = 9" in echoed


@pytest.mark.parametrize("spelling", [["--seed=5"], ["--seed", "5"]])
def test_explicit_flag_beats_config_file(tmp_path, spelling):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 9\nsequences = 2\n")
    out = tmp_path / "a"
    assert run(["--config", str(cfg), "data", "--out", str(out), "--frames", "22", *spelling]) == EXIT_OK
    echoed = (out / "config.txt").read_text()
    assert "seed = 5" in echoed and "sequences = 2" in echoed


def test_config_file_supplies_a_required_flag(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {a}\nsequences = 2\n")
    assert run(["--config", str(cfg), "data", "--frames", "22"]) == EXIT_OK
    assert (a / "seq_00001.bin").exists()
    assert run(["--config", str(cfg), "data", "--out", str(b), "--frames", "22"]) == EXIT_OK
    assert (b / "seq_00001.bin").exists()  # the explicit flag wins over the file
    assert (a / "seq_00001.bin").read_bytes() == (b / "seq_00001.bin").read_bytes()


def exit_code(argv) -> int:
    try:
        return run(argv)
    except SystemExit as exc:  # argparse rejects a value
        return exc.code


@pytest.mark.parametrize("case", ["missing_file", "no_separator", "seed_not_an_int", "stage_3",
                                  "convkv_maybe", "dtype_f16"])
def test_bad_config_is_usage_error(tmp_path, capsys, case):
    cfg = tmp_path / "run.cfg"
    text = {"no_separator": "seed 9\n", "seed_not_an_int": "seed = abc\n", "stage_3": "stage = 3\n",
            "convkv_maybe": "convkv = maybe\n", "dtype_f16": "dtype = f16\n"}.get(case)
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    if case == "stage_3":
        ds = tmp_path / "ds"
        run(["data", "--out", str(ds), "--seed", "1", "--sequences", "2", "--frames", "22"])
        argv = ["train", "--data", str(ds), "--out", str(out), "--steps", "0"]
    elif case in ("convkv_maybe", "dtype_f16"):
        save_checkpoint(tmp_path / "m.ckpt", init_params(DenoiserConfig(d_model=16, d_ff=16), seed=0))
        argv = ["generate", "--ckpt", str(tmp_path / "m.ckpt"), "--out", str(out), "--blocks", "1", "--steps", "1"]
    else:
        argv = ["data", "--out", str(out), "--sequences", "1"]
    capsys.readouterr()
    assert exit_code(["--config", str(cfg), *argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    assert not out.exists()


def test_required_flag_missing_from_flags_and_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sequences = 2\n")
    assert exit_code(["--config", str(cfg), "data", "--frames", "22"]) == EXIT_USAGE
    assert "the following arguments are required: --out" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["ckpt_is_a_directory", "data_is_a_file", "config_is_a_directory",
                                  "out_under_a_file", "out_is_a_file", "train_out_is_a_file",
                                  "bench_out_is_a_file"])
def test_path_of_the_wrong_kind_is_usage_error(tmp_path, capsys, monkeypatch, case):
    ds, a_file, ckpt = tmp_path / "ds", tmp_path / "a_file", str(tmp_path / "m.ckpt")
    run(["data", "--out", str(ds), "--seed", "1", "--sequences", "1", "--frames", "22"])
    a_file.write_text("not a directory\n")
    save_checkpoint(ckpt, init_params(DenoiserConfig(d_model=16, d_ff=16), seed=0))
    generate = ["generate", "--blocks", "1", "--steps", "1"]
    argv = {
        "ckpt_is_a_directory": [*generate, "--ckpt", str(ds), "--out", str(tmp_path / "gen")],
        "data_is_a_file": ["train", "--data", str(a_file), "--out", str(tmp_path / "run"), "--steps", "1"],
        "config_is_a_directory": ["--config", str(ds), "data", "--out", str(tmp_path / "d")],
        "out_under_a_file": ["data", "--out", str(a_file / "x"), "--sequences", "1"],
        "out_is_a_file": [*generate, "--ckpt", ckpt, "--out", str(a_file)],
        "train_out_is_a_file": ["train", "--data", str(ds), "--out", str(a_file), "--steps", "1"],
        "bench_out_is_a_file": ["bench", "--ckpt", ckpt, "--out", str(a_file), "--blocks", "4", "--reps", "1"],
    }[case]

    def never(*args, **kwargs):  # a bad path must fail before the command's work starts
        raise AssertionError(f"{case}: the work ran before the paths were checked")

    for work in ("train_stage1", "generate_stream", "bench_overhead"):
        monkeypatch.setattr(cli, work, never)
    capsys.readouterr()
    assert exit_code(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["lr_nan", "lr_inf", "batch_0", "empty_dataset"])
def test_train_rejects_bad_arguments(tmp_path, capsys, case):
    flags, message = {"lr_nan": (["--lr", "nan"], "learning rate .* got nan"),
                      "lr_inf": (["--lr", "inf"], "learning rate .* got inf"),
                      "batch_0": (["--batch", "0"], "batch size .* got 0"),
                      "empty_dataset": ([], "no sequences")}[case]
    ds, out = tmp_path / "ds", tmp_path / "run"
    run(["data", "--out", str(ds), "--seed", "1", "--sequences", "2", "--frames", "22"])
    if case == "empty_dataset":  # `nfar data` refuses --sequences 0, so the empty dataset is written here
        full, _ = load_dataset(ds)
        ds = tmp_path / "empty"
        save_dataset(ds, Dataset(full.sequences[:0], full.conditions[:0], full.dynamics), seed=1)
    capsys.readouterr()
    assert run(["train", "--data", str(ds), "--out", str(out), "--steps", "1", *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert re.search(message, err) and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["delta_u_nan", "delta_u_inf", "delta_u_negative", "residual_bound_nan",
                                  "residual_bound_inf"])
def test_data_rejects_non_finite_dynamics(tmp_path, capsys, case):
    flag, value = case.rsplit("_", 1)
    value = {"negative": "-0.1"}.get(value, value)
    out = tmp_path / "ds"
    assert run(["data", "--out", str(out), f"--{flag.replace('_', '-')}", value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert re.search("must be finite and non-negative", captured.err) and "Traceback" not in captured.err
    assert "neighbor bound" not in captured.out
    assert not out.exists()


def test_aborted_generate_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    save_checkpoint(tmp_path / "m.ckpt", init_params(DenoiserConfig(d_model=16, d_ff=16), seed=0))

    def aborting(*args, **kwargs):
        raise cli.GenerationAborted(1, "denoiser produced non-finite velocities")

    monkeypatch.setattr(cli, "generate_stream", aborting)
    out = tmp_path / "gen"
    assert run(["generate", "--ckpt", str(tmp_path / "m.ckpt"), "--out", str(out), "--blocks", "2"]) == cli.EXIT_ABORTED
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: generation aborted at block 1") and "Traceback" not in stderr
    assert not out.exists()


def test_data_with_no_sequences_is_usage_error(tmp_path, capsys):
    out = tmp_path / "ds"
    assert exit_code(["data", "--out", str(out), "--sequences", "0"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--sequences: must be at least 1, got 0" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["data", "generate"])
def test_out_of_memory_aborts_with_one_error_line(tmp_path, capsys, monkeypatch, command):
    # The callee raises as an allocation too large to hold would (--frames or --blocks of 1e8).
    def exhausted(*args, **kwargs):
        raise MemoryError()

    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, init_params(DenoiserConfig(d_model=16, d_ff=16), seed=0))
    out = tmp_path / "out"
    work, argv = {"data": ("make_dataset", ["data", "--out", str(out)]),
                  "generate": ("generate_stream", ["generate", "--ckpt", str(ckpt), "--out", str(out)])}[command]
    monkeypatch.setattr(cli, work, exhausted)
    capsys.readouterr()
    assert run(argv) == cli.EXIT_ABORTED
    err = capsys.readouterr().err
    assert err == "error: out of memory\n"
    assert not out.exists()
