import numpy as np
import pytest

from nfar.blocks import BlockPlan
from nfar.checks import randomized_params
from nfar.cli import EXIT_ABORTED, EXIT_USAGE, main
from nfar.convkv import bounded_view
from nfar.io import save_dataset
from nfar.model import DenoiserConfig, block_causal_mask, chunk_forward, init_params, tape_leaves, wrap_params
from nfar.numerics import ShapeError, Tensor, finite_difference_grad, grad_of
from nfar.synthdata import Dataset, LatentDynamics, condition_vector, make_dataset
from nfar.training import (
    TrainConfig,
    TrainingDiverged,
    evaluate_loss,
    neighbor_forcing_loss,
    train_stage1,
    train_stage2_convkv,
)

RNG = np.random.default_rng(11)
PLAN3 = BlockPlan.default(3)  # 22 chunks


def tiny_dataset(n=6, F=PLAN3.total_chunks, seed=2):
    dyn = LatentDynamics.create(seed=1)
    return make_dataset(dyn, n, F, seed=seed)


def tiny_config():
    return DenoiserConfig(n_layers=2, n_heads=2, d_model=16, d_latent=16, d_cond=32, d_ff=16)


def test_zero_lr_single_step_leaves_params_unchanged():
    ds = tiny_dataset()
    init = init_params(tiny_config(), seed=3)
    tc = TrainConfig(total_steps=1, plan=PLAN3, learning_rate=0.0, seed=4)
    out, hist = train_stage1(tc, ds, init)
    assert out.equal(init)
    assert len(hist) == 1


def test_diverging_run_raises_with_its_history(tmp_path, capsys):
    ds = tiny_dataset(n=4)
    tc = TrainConfig(total_steps=5, plan=PLAN3, learning_rate=1e300, batch_size=4)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:  # the weights overflow
        train_stage1(tc, ds, init_params(tiny_config(), seed=3))
    assert err.value.step == 1
    assert len(err.value.history) == 2 and np.isfinite(err.value.history[0][1])
    save_dataset(tmp_path / "ds", ds, seed=2)
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("mine")
    for out in (tmp_path / "new" / "run", kept):
        with np.errstate(all="ignore"):
            code = main(["train", "--data", str(tmp_path / "ds"), "--out", str(out), "--steps", "5", "--lr", "1e300"])
        assert code == EXIT_ABORTED
        stderr = capsys.readouterr().err
        assert stderr.startswith("error: ") and "Traceback" not in stderr
    assert not (tmp_path / "new").exists()  # the aborted run removes the directories it made
    assert [p.name for p in kept.iterdir()] == ["notes.txt"]  # and leaves one that existed alone


def test_training_deterministic_in_seed():
    ds = tiny_dataset()
    init = init_params(tiny_config(), seed=3)
    tc = TrainConfig(total_steps=5, plan=PLAN3, seed=4, batch_size=2)
    _, h1 = train_stage1(tc, ds, init)
    _, h2 = train_stage1(tc, ds, init)
    assert h1 == h2


def test_loss_shares_one_step_per_element():
    # Structural check: a per-chunk t is impossible to express — the loss
    # takes one scalar step per batch element and applies it to every chunk.
    ds = tiny_dataset(n=2)
    params = init_params(tiny_config(), seed=3)
    pt = wrap_params(params)
    t = np.array([0.3, 0.8])
    eps = RNG.standard_normal(ds.sequences[:2].shape)
    loss = neighbor_forcing_loss(pt, params.config, ds.sequences[:2], ds.conditions[:2],
                                 t, eps, PLAN3)
    # Zero-init head: predicted velocity 0, so the loss is the mean squared
    # target, independent of t — an analytic anchor for the shared-t path.
    expected = np.mean((eps - ds.sequences[:2]) ** 2)
    assert abs(loss.item() - expected) < 1e-12


def test_loss_gradients_match_finite_differences():
    config = DenoiserConfig(n_layers=2, n_heads=2, d_model=8, d_latent=4, d_cond=8, d_ff=8)
    params = init_params(config, seed=5)
    for name in params.values:
        params.values[name] = params.values[name] + 0.05 * RNG.standard_normal(params.values[name].shape)
    plan = BlockPlan((2, 2))
    seqs = RNG.standard_normal((2, 4, 4))
    conds = RNG.standard_normal((2, 8))
    t = np.array([0.3, 0.7])
    eps = RNG.standard_normal((2, 4, 4))

    def loss_of(values):
        pt = {k: Tensor(v) for k, v in values.items()}
        return neighbor_forcing_loss(pt, config, seqs, conds, t, eps, plan)

    for name in ("input.w", "adaln.w", "layers.1.attn.qkv.w", "output.b"):
        pt = {k: Tensor(v) for k, v in params.values.items()}
        (g,) = grad_of(neighbor_forcing_loss(pt, config, seqs, conds, t, eps, plan), [pt[name]])

        def f(x, name=name):
            vals = dict(params.values)
            vals[name] = x
            return loss_of(vals).item()

        fd = finite_difference_grad(f, params.values[name])
        assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-4


def test_stage2_mask_layout():
    # On (6, 8, 8) the bounded cache shows block 1 block 0's last two chunks,
    # and block 2 block 1's last two and the windows [0, 5) and [5, 10); chunks
    # 10-11 wait in pending, so no block sees them.
    mask = bounded_view(PLAN3, 5)
    F = PLAN3.total_chunks
    assert mask.shape == (F, F + 2)
    assert (mask[:6, :6] == 1.0).all() and (mask[:6, 6:] == 0.0).all()
    assert (mask[6:14, 4:14] == 1.0).all() and mask[6:14, :4].sum() == mask[6:14, 14:].sum() == 0.0
    assert (mask[14:, 12:] == 1.0).all() and mask[14:, :12].sum() == 0.0
    # The raw part never reaches past block-causal attention.
    assert (mask[:, :F] <= block_causal_mask(PLAN3)).all()


def test_stage2_mask_conservation_vs_truncation():
    # Compressing a span admits strictly more keys than dropping it.
    mask = bounded_view(PLAN3, 5)
    truncated = mask[:, :PLAN3.total_chunks]
    assert (mask.sum(axis=1) >= truncated.sum(axis=1)).all()
    assert mask[14:].sum() > truncated[14:].sum()


def test_stage2_refuses_a_plan_that_forms_no_window(tmp_path, capsys):
    # (6, 2): block 1 runs after chunks 0-3 went to pending, short of a window of 5.
    ds = tiny_dataset(F=8)
    init = init_params(tiny_config(), seed=3)
    with pytest.raises(ValueError, match="no compression window"):
        train_stage2_convkv(TrainConfig(total_steps=1, plan=BlockPlan((6, 2))), ds, init)
    save_dataset(tmp_path / "ds", ds, seed=2)
    main(["train", "--data", str(tmp_path / "ds"), "--out", str(tmp_path / "s1"), "--steps", "0"])
    capsys.readouterr()
    assert main(["train", "--data", str(tmp_path / "ds"), "--out", str(tmp_path / "s2"), "--stage", "2",
                 "--steps", "1", "--init", str(tmp_path / "s1" / "model.ckpt")]) == EXIT_USAGE
    assert "no compression window" in capsys.readouterr().err
    assert not (tmp_path / "s2").exists()


def test_stage2_freezes_denoiser_and_trains_compressor():
    ds = tiny_dataset()
    init = init_params(tiny_config(), seed=3)
    tc1 = TrainConfig(total_steps=3, plan=PLAN3, seed=4, batch_size=2)
    s1, _ = train_stage1(tc1, ds, init)
    tc2 = TrainConfig(total_steps=3, plan=PLAN3, seed=5, batch_size=2)
    s2, hist = train_stage2_convkv(tc2, ds, s1)
    assert all(np.array_equal(s1.values[k], s2.values[k]) for k in s1.denoiser_names())
    assert any(not np.array_equal(s1.values[k], s2.values[k]) for k in s1.compressor_names())
    assert s2.meta["stage"] == "2"
    assert all(np.isfinite(l) for _, l, _ in hist)


def test_stage2_takes_the_compression_ratio_from_the_model():
    ds = tiny_dataset()
    init = randomized_params(DenoiserConfig(n_layers=1, n_heads=2, d_model=8, d_latent=16, d_cond=32,
                                            d_ff=8, compress_ratio=3), seed=3)
    s2, hist = train_stage2_convkv(TrainConfig(total_steps=2, plan=PLAN3, seed=5, batch_size=1), ds, init)
    assert s2.values["compressor.w"].shape == (2, 3, 8, 8)
    assert any(not np.array_equal(init.values[k], s2.values[k]) for k in init.compressor_names())
    assert all(np.isfinite(l) for _, l, _ in hist)


def test_nonar_mask_mode_trains_and_is_tagged():
    ds = tiny_dataset()
    init = init_params(tiny_config(), seed=3)
    tc = TrainConfig(total_steps=3, plan=PLAN3, seed=4, batch_size=2, mask_mode="none")
    params, _ = train_stage1(tc, ds, init)
    assert params.meta["mask_mode"] == "none"


@pytest.mark.parametrize("block", [0, 2])
def test_nonar_loss_is_the_zero_shot_layout_bit_for_bit(block):
    # The non-AR backbone trains in the layout the zero-shot chain runs it in:
    # its block alone after the reference, which attends only to itself.
    config = tiny_config()
    params = randomized_params(config, seed=5)
    ds = tiny_dataset(n=1)
    t, eps = 0.4, RNG.standard_normal(ds.sequences.shape)
    loss = neighbor_forcing_loss(params.values, config, ds.sequences, ds.conditions, np.array([t]), eps, PLAN3,
                                 mask_mode="none", block_choice=np.array([block]))
    x0, s, e = ds.sequences[0], *PLAN3.chunk_range(block)
    x_t = (1.0 - t) * x0 + t * eps[0]
    vel = chunk_forward(params.values, config, x0[:2], x_t[s:e], s, np.ones((e - s, e - s)), t, ds.conditions[0])
    assert loss.item() == np.mean((vel - (eps[0] - x0)[s:e]) ** 2)


def test_evaluate_loss_deterministic():
    ds = tiny_dataset(n=3)
    params = init_params(tiny_config(), seed=3)
    a = evaluate_loss(params, ds, PLAN3, seed=7)
    b = evaluate_loss(params, ds, PLAN3, seed=7)
    assert a == b


def test_held_out_loss_is_tape_free_and_equals_the_taped_loss(monkeypatch):
    ds = tiny_dataset(n=3)
    params = randomized_params(tiny_config(), seed=3)
    eps = RNG.standard_normal(ds.sequences.shape)
    t = np.array([0.2, 0.5, 0.9])
    for bounded in (False, True):
        taped = neighbor_forcing_loss(wrap_params(params), params.config, ds.sequences, ds.conditions,
                                      t, eps, PLAN3, bounded=bounded)
        bare = neighbor_forcing_loss(params.values, params.config, ds.sequences, ds.conditions,
                                     t, eps, PLAN3, bounded=bounded)
        assert isinstance(taped, Tensor) and not isinstance(bare, Tensor)
        assert bare.item() == taped.item()
    created = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        created.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    evaluate_loss(params, ds, PLAN3, seed=7, bounded=True)
    assert not created


def test_batch_shape_mismatch_rejected():
    params = init_params(tiny_config(), seed=3)
    pt = wrap_params(params)
    with pytest.raises(ValueError):
        neighbor_forcing_loss(pt, params.config, np.zeros((2, 22, 16)), np.zeros((2, 32)),
                              np.zeros(3), np.zeros((2, 22, 16)), PLAN3)


def _loss_args(batch=2):
    params = init_params(tiny_config(), seed=3)
    ds = tiny_dataset(n=batch)
    return (params.values, params.config, ds.sequences, ds.conditions, np.full(batch, 0.5),
            RNG.standard_normal(ds.sequences.shape), PLAN3)


def test_unknown_mask_mode_rejected():
    with pytest.raises(ValueError, match="unknown mask mode"):
        neighbor_forcing_loss(*_loss_args(), mask_mode="bogus")


def test_nonar_mask_mode_needs_a_valid_block_choice():
    with pytest.raises(ValueError, match="block_choice"):
        neighbor_forcing_loss(*_loss_args(), mask_mode="none")
    with pytest.raises(ShapeError):
        neighbor_forcing_loss(*_loss_args(), mask_mode="none", block_choice=np.array([0]))
    for bad in (np.array([0, 3]), np.array([-1, 0]), np.array([0.0, 1.0])):
        with pytest.raises(ValueError, match="block indices"):
            neighbor_forcing_loss(*_loss_args(), mask_mode="none", block_choice=bad)
    with pytest.raises(ValueError, match="causal"):
        neighbor_forcing_loss(*_loss_args(), bounded=True, mask_mode="none",
                              block_choice=np.array([0, 1]))


def test_one_condition_per_sequence_required():
    weights, config, seqs, conds, t, eps, plan = _loss_args()
    for bad in (conds[:1], conds[:, :-1], conds[0]):
        with pytest.raises(ShapeError, match="conds shape"):
            neighbor_forcing_loss(weights, config, seqs, bad, t, eps, plan)


def _tape_nodes(loss) -> tuple[set, set]:
    """Ids of every node on the tape of `loss`, and of its leaves."""
    seen, stack, leaves = set(), [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
            if not node.parents:
                leaves.add(id(node))
    return seen, leaves


def test_stage2_tape_holds_only_the_compressor():
    # Frozen weights stay bare, so every leaf of the stage-2 tape is a compressor
    # tensor, and layer 0 up to its memory conv records nothing.
    ds = tiny_dataset(n=2)
    params = randomized_params(tiny_config(), seed=3)
    args = (params.config, ds.sequences, ds.conditions, np.array([0.3, 0.6]),
            RNG.standard_normal(ds.sequences.shape), PLAN3)
    pt = wrap_params(params, params.compressor_names())
    nodes, leaves = _tape_nodes(neighbor_forcing_loss(pt, *args, bounded=True))
    assert leaves == {id(leaf) for leaf in tape_leaves(pt, params.compressor_names())}
    all_nodes, _ = _tape_nodes(neighbor_forcing_loss(wrap_params(params), *args, bounded=True))
    assert len(nodes) < len(all_nodes) / 2


def test_default_stage1_loss_tape_size():
    # One node per transformer layer keeps a stage-1 loss at 40 non-leaf tape
    # nodes (64 with one node per sublayer op, 92 with elementwise chains): a
    # regression to composed ops shows here first.
    ds = tiny_dataset(n=4)
    params = init_params(DenoiserConfig(), seed=3)
    loss = neighbor_forcing_loss(wrap_params(params), params.config, ds.sequences, ds.conditions,
                                 np.array([0.1, 0.3, 0.5, 0.7]), RNG.standard_normal(ds.sequences.shape), PLAN3)
    nodes, leaves = _tape_nodes(loss)
    assert len(nodes - leaves) == 40
