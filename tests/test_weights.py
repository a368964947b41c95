import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvt2 import cli, weights
from mvt2.blocks import deployed
from mvt2.fusion import RepBranchSpec
from mvt2.model import ModelConfig, _blocks, build, deploy, forward, named_tensors

from helpers import TINY


FIXED = struct.Struct("<4sIQ")


def rewrite_header(path, mutate):
    """Round-trip the file through a header edit for corruption tests."""
    data = path.read_bytes()
    magic, version, header_len = FIXED.unpack_from(data)
    header = json.loads(data[FIXED.size:FIXED.size + header_len])
    mutate(header)
    new_header = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(FIXED.pack(magic, version, len(new_header)) + new_header + data[FIXED.size + header_len:])


def reachable_bytes(model):
    """Bytes of the distinct arrays reachable from the model's fields."""
    seen = {}

    def walk(obj):
        if isinstance(obj, np.ndarray):
            seen[id(obj)] = obj.nbytes
        elif isinstance(obj, list):
            for value in obj:
                walk(value)
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name))

    walk(model)
    return sum(seen.values())


class TestRoundTrip:
    def test_train_mode_tensors_bit_exact(self, tmp_path):
        model = build(TINY, seed=3)
        path = tmp_path / "m.mvt2"
        weights.save(model, path)
        loaded = weights.load(path)
        saved = dict(named_tensors(model))
        for name, arr in named_tensors(loaded):
            assert arr.tobytes() == saved[name].tobytes(), name

    def test_train_mode_forward_bit_identical(self, tmp_path):
        model = build(TINY, seed=3)
        path = tmp_path / "m.mvt2"
        weights.save(model, path)
        loaded = weights.load(path)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert forward(loaded, x).tobytes() == forward(model, x).tobytes()

    def test_deploy_mode_round_trip(self, tmp_path):
        model = deploy(build(TINY, seed=5))
        path = tmp_path / "m.mvt2"
        weights.save(model, path)
        loaded = weights.load(path)
        assert loaded.mode == "deploy"
        saved = dict(named_tensors(model))
        for name, arr in named_tensors(loaded):
            assert arr.tobytes() == saved[name].tobytes(), name

    def test_form_follows_hand_deployed_blocks(self, tmp_path):
        model = build(TINY, seed=4)
        by_hand = dataclasses.replace(model, blocks=[deployed(b) for b in model.blocks])
        assert by_hand.mode == "deploy"
        path, ref = tmp_path / "m.mvt2", tmp_path / "ref.mvt2"
        weights.save(by_hand, path)
        weights.save(deploy(model), ref)
        assert path.read_bytes() == ref.read_bytes()
        loaded = weights.load(path)
        assert loaded.mode == "deploy"
        saved = list(named_tensors(by_hand))
        got = list(named_tensors(loaded))
        assert [n for n, _ in got] == [n for n, _ in saved]
        for (name, a), (_, b) in zip(got, saved):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("part", ["stem", "stage1"])
    def test_mixed_forms_are_refused(self, part):
        """A model with only some blocks deployed has no one form, so it is
        not built: no file, cost report or deploy call ever sees one."""
        model = build(TINY, seed=4)
        with pytest.raises(ValueError, match="mix"):
            dataclasses.replace(model, blocks=[
                deployed(b) if name.startswith(f"{part}.") else b for name, b in _blocks(model)])

    def test_mdta_config_round_trip(self, tmp_path):
        cfg = ModelConfig(
            depths=(1, 1, 1),
            dims=(8, 8, 8),
            ffn_ratio=2,
            num_classes=10,
            input_resolution=32,
            attention="mdta",
        )
        model = build(cfg, seed=1)
        path = tmp_path / "m.mvt2"
        weights.save(model, path)
        loaded = weights.load(path)
        assert loaded.config.attention == "mdta"
        saved = dict(named_tensors(model))
        for name, arr in named_tensors(loaded):
            assert arr.tobytes() == saved[name].tobytes(), name

    def test_mdta_deploy_round_trip(self, tmp_path):
        model = deploy(build(dataclasses.replace(TINY, attention="mdta"), seed=2))
        path = tmp_path / "m.mvt2"
        weights.save(model, path)
        loaded = weights.load(path)
        assert (loaded.mode, loaded.config.attention) == ("deploy", "mdta")
        saved = list(named_tensors(model))
        got = list(named_tensors(loaded))
        assert [n for n, _ in got] == [n for n, _ in saved]
        for (name, a), (_, b) in zip(got, saved):
            assert a.tobytes() == b.tobytes(), name
        x = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert forward(loaded, x).tobytes() == forward(model, x).tobytes()

    def test_numpy_integer_config_round_trip(self, tmp_path):
        cfg = ModelConfig(depths=tuple(np.int64(d) for d in TINY.depths),
                          dims=np.array(TINY.dims), ffn_ratio=np.int32(2),
                          num_classes=np.int64(10), input_resolution=np.uint16(32))
        assert cfg == TINY
        path = tmp_path / "m.mvt2"
        weights.save(build(cfg, seed=1), path)
        header = weights.read_header(path)["config"]
        for name in ("ffn_ratio", "num_classes", "input_resolution"):
            assert type(header[name]) is int, name
        assert all(type(v) is int for v in header["depths"] + header["dims"])
        assert weights.load(path).config == TINY

    def test_same_seed_saves_identical_files(self, tmp_path):
        a = tmp_path / "a.mvt2"
        b = tmp_path / "b.mvt2"
        weights.save(build(TINY, seed=11), a)
        weights.save(build(TINY, seed=11), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = tmp_path / "a.mvt2"
        b = tmp_path / "b.mvt2"
        weights.save(build(TINY, seed=11), a)
        weights.save(build(TINY, seed=12), b)
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("attention,mode,digest", [
        ("sdta", "train", "cc221f73eb4adea210b80f5de0d0ad1ad644f86fa4fb2121f9ffe68c7f23416f"),
        ("sdta", "deploy", "c6aab24181fe9c27508af261380da0487b4dce0b6d7d4c7d8d9bb95d76371165"),
        ("mdta", "train", "e3e8a33be47849136d627e208fdb043b6c4f2fe6aac0709cc33382ab9f3c8917"),
        ("mdta", "deploy", "608ecd2194b1b3cf153e3cbfa1fb8b76c09d5817635361eac7c717c7d6ce84d4"),
    ])
    def test_seeded_file_bytes_are_pinned(self, tmp_path, attention, mode, digest):
        """The draw order of ``build`` and the layout of the file, pinned: a
        change to either changes these digests."""
        model = build(dataclasses.replace(TINY, attention=attention), seed=1)
        path = tmp_path / "m.mvt2"
        weights.save(model if mode == "train" else deploy(model), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        again = tmp_path / "again.mvt2"
        weights.save(weights.load(path), again)
        assert again.read_bytes() == path.read_bytes()


class TestFileLayout:
    def test_magic_and_version(self, tmp_path):
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        data = path.read_bytes()
        assert data[:4] == b"MVT2"
        assert struct.unpack_from("<I", data, 4)[0] == 1

    def test_offsets_aligned_and_disjoint(self, tmp_path):
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        header = weights.read_header(path)
        spans = []
        for entry in header["tensors"]:
            assert entry["byte_offset"] % 64 == 0
            assert entry["dtype"] == "f32"
            spans.append((entry["byte_offset"], entry["byte_offset"] + entry["byte_len"]))
        spans.sort()
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            assert start >= prev_end

    def test_every_parameter_listed_once(self, tmp_path):
        model = build(TINY, seed=0)
        path = tmp_path / "m.mvt2"
        weights.save(model, path)
        names = [e["name"] for e in weights.read_header(path)["tensors"]]
        assert sorted(names) == sorted(n for n, _ in named_tensors(model))
        assert len(names) == len(set(names))

    def test_header_records_recipe_and_config(self, tmp_path):
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        header = weights.read_header(path)
        assert header["mode"] == "train"
        assert header["config"]["dims"] == [8, 8, 8]
        assert header["preprocessing"]["resize"] == [32, 32]
        assert len(header["preprocessing"]["channel_mean"]) == 3

    def test_float64_model_rejected(self, tmp_path):
        model = build(TINY, seed=0, dtype=np.float64)
        with pytest.raises(ValueError):
            weights.save(model, tmp_path / "m.mvt2")


class TestSaveRechecks:
    """``blocks`` is a plain list, so it can be edited in place after the
    model was built; ``save`` checks the model again, and every tensor's
    dtype, before it opens the file.  A refused save leaves no file."""

    def refuse(self, tmp_path, model, match):
        path = tmp_path / "m.mvt2"
        with pytest.raises(ValueError, match=match):
            weights.save(model, path)
        assert not path.exists()

    def test_a_popped_block_is_refused(self, tmp_path):
        model = build(TINY, seed=0)
        model.blocks.pop()
        self.refuse(tmp_path, model, "layout")

    def test_a_block_deployed_in_place_is_refused(self, tmp_path):
        model = build(TINY, seed=0)
        model.blocks[0] = deployed(model.blocks[0])
        self.refuse(tmp_path, model, "mix")

    def test_float64_blocks_under_a_float32_classifier_are_refused(self, tmp_path):
        """The classifier alone is float32, so a check of the model's dtype
        would pass; ``load`` would give back a float32 model that runs where
        the saved one cannot.  Such a model is refused when it is built, and
        again by ``save`` if its blocks are swapped in place."""
        with pytest.raises(ValueError, match="stem.0.branch is float64"):
            dataclasses.replace(build(TINY, 0), blocks=build(TINY, 0, dtype=np.float64).blocks)
        model = build(TINY, 0)
        model.blocks[:] = build(TINY, 0, dtype=np.float64).blocks
        self.refuse(tmp_path, model, "stem.0.branch is float64")


class TestCorruption:
    def make(self, tmp_path):
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make(tmp_path)
        data = path.read_bytes()
        path.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(weights.BadMagicError):
            weights.load(path)

    def test_short_file(self, tmp_path):
        path = self.make(tmp_path)
        path.write_bytes(path.read_bytes()[:2])
        with pytest.raises(weights.TruncatedPayloadError):
            weights.load(path)

    def test_version_mismatch(self, tmp_path):
        path = self.make(tmp_path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(data))
        with pytest.raises(weights.VersionError):
            weights.load(path)

    def test_truncated_payload(self, tmp_path):
        path = self.make(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(weights.TruncatedPayloadError):
            weights.load(path)

    def test_shape_mismatch(self, tmp_path):
        path = self.make(tmp_path)

        def shrink_head(header):
            for entry in header["tensors"]:
                if entry["name"] == "head.bias":
                    entry["shape"] = [entry["shape"][0] - 1]
                    entry["byte_len"] -= 4
                    return
            raise AssertionError("head.bias not found")

        rewrite_header(path, shrink_head)
        with pytest.raises(weights.ShapeError):
            weights.load(path)

    def test_inconsistent_byte_len(self, tmp_path):
        path = self.make(tmp_path)

        def break_len(header):
            header["tensors"][0]["byte_len"] += 4

        rewrite_header(path, break_len)
        with pytest.raises(weights.FormatError):
            weights.load(path)

    def test_duplicate_name(self, tmp_path):
        path = self.make(tmp_path)

        def duplicate(header):
            header["tensors"].append(dict(header["tensors"][0]))

        rewrite_header(path, duplicate)
        with pytest.raises(weights.DuplicateNameError):
            weights.load(path)

    def test_unknown_extra_tensor(self, tmp_path):
        path = self.make(tmp_path)

        def add_stranger(header):
            entry = dict(header["tensors"][0])
            entry["name"] = "not.a.real.tensor"
            header["tensors"].append(entry)

        rewrite_header(path, add_stranger)
        with pytest.raises(weights.FormatError):
            weights.load(path)

    def test_missing_tensor(self, tmp_path):
        path = self.make(tmp_path)

        def drop_one(header):
            header["tensors"] = [
                e for e in header["tensors"] if e["name"] != "head.bias"
            ]

        rewrite_header(path, drop_one)
        with pytest.raises(weights.FormatError):
            weights.load(path)

    def test_unknown_mode(self, tmp_path):
        path = self.make(tmp_path)

        def set_mode(header):
            header["mode"] = "half-fused"

        rewrite_header(path, set_mode)
        with pytest.raises(weights.FormatError):
            weights.load(path)

    def test_garbage_header(self, tmp_path):
        path = self.make(tmp_path)
        data = path.read_bytes()
        corrupt = bytearray(data)
        corrupt[FIXED.size] = 0xFF
        path.write_bytes(bytes(corrupt))
        with pytest.raises(weights.FormatError):
            weights.load(path)

    def test_errors_share_a_base_class(self):
        for exc in (
            weights.BadMagicError,
            weights.VersionError,
            weights.TruncatedPayloadError,
            weights.ShapeError,
            weights.DuplicateNameError,
            weights.FormatError,
        ):
            assert issubclass(exc, weights.WeightFileError)


class TestSkeleton:
    def test_deploy_form_keeps_only_its_named_tensors(self, tmp_path):
        model = deploy(build(TINY, seed=5))
        path = tmp_path / "m.mvt2"
        weights.save(model, path)
        for m in (model, weights.load(path)):
            assert reachable_bytes(m) == sum(a.nbytes for _, a in named_tensors(m))

    @pytest.mark.parametrize("form", ["train", "deploy"])
    def test_load_draws_no_random_weights(self, tmp_path, monkeypatch, form):
        model = build(TINY, seed=6)
        if form == "deploy":
            model = deploy(model)
        path = tmp_path / "m.mvt2"
        weights.save(model, path)

        def no_draws(*args, **kwargs):
            raise AssertionError("load drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = weights.load(path)
        assert loaded.mode == form
        saved = list(named_tensors(model))
        got = list(named_tensors(loaded))
        assert [n for n, _ in got] == [n for n, _ in saved]
        for (name, a), (_, b) in zip(got, saved):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_deploy_load_constructs_no_branch_group(self, tmp_path, monkeypatch):
        path = tmp_path / "m.mvt2"
        weights.save(deploy(build(TINY, seed=7)), path)

        def refuse(self):
            raise AssertionError("a deploy load constructed a RepBranchSpec")

        monkeypatch.setattr(RepBranchSpec, "__post_init__", refuse)
        assert weights.load(path).mode == "deploy"


def saved_and_loaded(tmp_path, form):
    model = build(TINY, seed=8)
    if form == "deploy":
        model = deploy(model)
    path = tmp_path / "m.mvt2"
    weights.save(model, path)
    return model, weights.load(path)


class TestReadOnlyViews:
    @pytest.mark.parametrize("form", ["train", "deploy"])
    def test_every_tensor_is_a_read_only_view_of_one_buffer(self, tmp_path, form):
        _, loaded = saved_and_loaded(tmp_path, form)
        arrays = [a for _, a in named_tensors(loaded)]
        buffer = arrays[0].base
        assert buffer is not None and not buffer.flags.writeable
        for a in arrays:
            assert a.base is buffer and not a.flags.writeable
            assert np.shares_memory(a, buffer)

    @pytest.mark.parametrize("form", ["train", "deploy"])
    def test_in_place_writes_raise(self, tmp_path, form):
        model, loaded = saved_and_loaded(tmp_path, form)
        for (name, a), (_, b) in zip(named_tensors(loaded), named_tensors(model)):
            with pytest.raises(ValueError):
                a += 1
            with pytest.raises(ValueError):
                a.flags.writeable = True
            assert a.tobytes() == b.tobytes(), name


HOSTILE_HEADERS = [
    pytest.param(lambda h: h.update(tensors=5), id="tensors-not-a-list"),
    pytest.param(lambda h: h["tensors"].insert(0, 7), id="entry-not-an-object"),
    pytest.param(lambda h: h["tensors"][0].update(name=["a"]), id="name-not-a-string"),
    pytest.param(lambda h: h["tensors"][0].update(shape="abc"), id="shape-a-string"),
    pytest.param(lambda h: h["tensors"][0].update(byte_offset="0"), id="offset-a-string"),
    pytest.param(lambda h: h["tensors"][0].update(byte_offset=-64), id="offset-negative"),
    pytest.param(lambda h: h.update(mode="deploy", config={**h["config"], "attention": "mdta"}),
                 id="ablation-deploy-header-over-train-tensors"),
    pytest.param(lambda h: h["config"].update(input_resolution=32.0), id="resolution-a-float"),
    pytest.param(lambda h: h["config"].update(depths=[1.5, 1, 1]), id="depth-a-float"),
    pytest.param(lambda h: h["config"].update(num_classes=True), id="classes-a-bool"),
]


class TestHostileHeader:
    @pytest.mark.parametrize("mutate", HOSTILE_HEADERS)
    def test_rejected_with_exit_4(self, tmp_path, capsys, mutate):
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        rewrite_header(path, mutate)
        with pytest.raises(weights.WeightFileError):
            weights.load(path)
        raw = tmp_path / "x.raw"
        np.zeros((1, 3, 32, 32), dtype="<f4").tofile(raw)
        rc = cli.main(["infer", "--model", str(path), "--input", str(raw), "--shape", "1,3,32,32"])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "m.mvt2"
        path.write_bytes(FIXED.pack(b"MVT2", 1, 1) + b"5")
        with pytest.raises(weights.FormatError):
            weights.load(path)


class TestConfigBeyondFile:
    """A header config the file cannot hold is a weight-file error, not a
    traceback or a long build."""

    @pytest.mark.parametrize("mutate", [
        # more stage blocks than listed tensors: rejected before the walk
        pytest.param(lambda h: h["config"].update(depths=[200000, 1, 1]),
                     id="deeper-than-the-manifest"),
        # a head far larger than memory: its file shape is refused, nothing allocated
        pytest.param(lambda h: h["config"].update(num_classes=10**12),
                     id="skeleton-out-of-memory"),
    ])
    def test_rejected_with_exit_4(self, tmp_path, capsys, mutate):
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        rewrite_header(path, mutate)
        with pytest.raises(weights.WeightFileError):
            weights.load(path)
        raw = tmp_path / "x.raw"
        np.zeros((1, 3, 32, 32), dtype="<f4").tofile(raw)
        rc = cli.main(["infer", "--model", str(path), "--input", str(raw), "--shape", "1,3,32,32"])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("error: ") and err.count("\n") == 1


def patch_payload(path, name, index, value):
    """Overwrite element ``index`` of tensor ``name`` in the payload."""
    data = bytearray(path.read_bytes())
    _, _, header_len = FIXED.unpack_from(data)
    header = json.loads(data[FIXED.size:FIXED.size + header_len])
    entry = next(e for e in header["tensors"] if e["name"] == name)
    offset = FIXED.size + header_len + entry["byte_offset"] + 4 * index
    struct.pack_into("<f", data, offset, value)
    path.write_bytes(bytes(data))


class TestNonFinitePayload:
    @pytest.mark.parametrize("form", ["train", "deploy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_rejected_with_exit_4_naming_the_tensor(self, tmp_path, capsys, form, bad):
        model = build(TINY, seed=0)
        if form == "deploy":
            model = deploy(model)
        path = tmp_path / "m.mvt2"
        weights.save(model, path)
        names = [n for n, _ in named_tensors(model)]
        # a later tensor too, so the message names the first bad one
        patch_payload(path, names[-1], 0, bad)
        patch_payload(path, names[3], 0, bad)
        with pytest.raises(weights.FormatError, match=f"tensor '{names[3]}' holds a NaN"):
            weights.load(path)
        raw = tmp_path / "x.raw"
        np.zeros((1, 3, 32, 32), dtype="<f4").tofile(raw)
        rc = cli.main(["infer", "--model", str(path), "--input", str(raw), "--shape", "1,3,32,32"])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("error: ") and err.count("\n") == 1 and names[3] in err

    def test_large_finite_values_load(self, tmp_path):
        # float32 max in every element of a tensor: a summed check would overflow
        model = build(TINY, seed=0)
        path = tmp_path / "m.mvt2"
        weights.save(model, path)
        name, arr = list(named_tensors(model))[0]
        big = float(np.finfo(np.float32).max)
        for i in range(arr.size):
            patch_payload(path, name, i, big)
        loaded = dict(named_tensors(weights.load(path)))
        assert np.all(loaded[name] == np.float32(big))

    def test_non_finite_padding_loads(self, tmp_path):
        # the bytes between tensors belong to no tensor: a NaN there fails
        # the load's one scan of the payload, but no tensor check
        model = build(TINY, seed=0)
        path = tmp_path / "m.mvt2"
        weights.save(model, path)
        data = bytearray(path.read_bytes())
        header_len = FIXED.unpack_from(data)[2]
        entries = sorted(json.loads(data[FIXED.size:FIXED.size + header_len])["tensors"],
                         key=lambda e: e["byte_offset"])
        gap = next(a["byte_offset"] + a["byte_len"] for a, b in zip(entries, entries[1:])
                   if b["byte_offset"] > a["byte_offset"] + a["byte_len"])
        struct.pack_into("<f", data, FIXED.size + header_len + gap, np.nan)
        path.write_bytes(bytes(data))
        loaded = weights.load(path)
        for (name, a), (_, b) in zip(named_tensors(model), named_tensors(loaded)):
            assert a.tobytes() == b.tobytes(), name

    def test_bad_tensor_past_the_first_read_is_named(self, tmp_path):
        # a payload of several read chunks, with the one bad tensor last
        model = build(dataclasses.replace(TINY, dims=(32, 64, 128)), seed=0)
        path = tmp_path / "m.mvt2"
        weights.save(model, path)
        assert path.stat().st_size > 4 * weights._READ_CHUNK
        last = list(named_tensors(model))[-1][0]
        patch_payload(path, last, 0, np.inf)
        with pytest.raises(weights.FormatError, match=f"tensor '{last}' holds a NaN"):
            weights.load(path)



def run_cli(capsys, args):
    rc = cli.main([str(a) for a in args])
    out, err = capsys.readouterr()
    return rc, out, err


class TestNegativeVariance:
    # one tensor of a multi-branch group and one of a one-branch unit
    @pytest.mark.parametrize("name", ["stage1.0.mixer.main_bn.var", "stage3.0.proj_p_bn.var"])
    def test_rejected_with_exit_4_naming_the_tensor(self, tmp_path, capsys, name):
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        patch_payload(path, name, 0, -5.0)
        with pytest.raises(weights.FormatError, match=f"tensor '{name}' holds a negative"):
            weights.load(path)
        raw = tmp_path / "x.raw"
        np.zeros((1, 3, 32, 32), dtype="<f4").tofile(raw)
        for args in (["infer", "--model", path, "--input", raw, "--shape", "1,3,32,32"],
                     ["fuse", "--in", path, "--out", tmp_path / "d.mvt2"]):
            rc, out, err = run_cli(capsys, args)
            assert rc == 4 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and name in err
        assert not (tmp_path / "d.mvt2").exists()

    def test_zero_variance_loads(self, tmp_path):
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        patch_payload(path, "stage1.0.mixer.main_bn.var", 0, 0.0)
        assert dict(named_tensors(weights.load(path)))["stage1.0.mixer.main_bn.var"][0] == 0


class TestNonFiniteResults:
    """A file that loads (float32 max is finite) but whose forward and
    fusion overflow: every command that computes from it fails loudly."""

    @pytest.fixture()
    def big_file(self, tmp_path):
        path = tmp_path / "big.mvt2"
        weights.save(build(TINY, seed=0), path)
        for i in range(8 * 9):
            patch_payload(path, "stage1.0.mixer.main.kernel", i, float(np.finfo(np.float32).max))
        weights.load(path)
        return path

    def test_infer_exits_1_with_one_error_line(self, tmp_path, capsys, big_file):
        raw = tmp_path / "x.raw"
        np.random.default_rng(0).standard_normal((1, 3, 32, 32)).astype("<f4").tofile(raw)
        rc, out, err = run_cli(capsys, ["infer", "--model", big_file, "--input", raw,
                                        "--shape", "1,3,32,32"])
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "NaN or infinite" in err

    def test_fuse_exits_1_and_writes_nothing(self, tmp_path, capsys, big_file):
        out_path = tmp_path / "d.mvt2"
        rc, out, err = run_cli(capsys, ["fuse", "--in", big_file, "--out", out_path])
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "stage1.0.mixer_fused" in err
        assert not out_path.exists()

    def test_verify_fusion_fails_the_unit(self, capsys, big_file):
        rc, out, err = run_cli(capsys, ["verify-fusion", "--in", big_file, "--samples", "2"])
        assert rc == 1 and err == ""

        def strict(constant):
            raise AssertionError(f"stdout holds {constant}, which is not JSON")

        report = json.loads(out, parse_constant=strict)
        by_name = {b["name"]: b for b in report["blocks"]}
        assert by_name["stage1.0.mixer"] == {"name": "stage1.0.mixer",
                                             "max_abs_diff": None, "pass": False}
        assert by_name["stage1.0.ffn.expand"]["pass"]
        assert report["all_pass"] is False

    def test_save_refuses_before_writing(self, tmp_path):
        model = build(TINY, seed=0)
        model.stage2[0].project.main_bn.beta[1] = np.nan
        path = tmp_path / "m.mvt2"
        with pytest.raises(ValueError, match="'stage2.0.project_bn.beta' holds a NaN"):
            weights.save(model, path)
        assert not path.exists()


@functools.lru_cache(maxsize=None)
def tiny_file_bytes(mode):
    """The bytes of a TINY weight file in ``mode``; TINY keeps every
    mutated skeleton small."""
    model = build(TINY, seed=0)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "m.mvt2")
        weights.save(deploy(model) if mode == "deploy" else model, path)
        with open(path, "rb") as fh:
            return fh.read()


@st.composite
def mutated_files(draw):
    """A TINY train or deploy file with one mutation: a single-bit flip in
    the header (fixed part or JSON) or in the payload, a truncation at any
    offset, or 1-200 appended bytes."""
    data = bytearray(tiny_file_bytes(draw(st.sampled_from(["train", "deploy"]))))
    header_end = FIXED.size + FIXED.unpack_from(data)[2]
    kind = draw(st.sampled_from(["header-bit", "payload-bit", "truncate", "append"]))
    if kind == "truncate":
        return bytes(data[:draw(st.integers(0, len(data) - 1))])
    if kind == "append":
        return bytes(data) + draw(st.binary(min_size=1, max_size=200))
    lo, hi = (0, header_end) if kind == "header-bit" else (header_end, len(data))
    data[draw(st.integers(lo, hi - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=mutated_files())
def test_mutated_file_is_rejected_or_runs(data):
    """Every mutation either raises a ``WeightFileError`` subclass (``infer``
    exits 4 or 3) or loads a model that ``infer`` runs (exit 0, or 1 on a
    non-finite logit); a failure is one ``error:`` line, never a traceback."""
    with tempfile.TemporaryDirectory() as root:
        path, raw = os.path.join(root, "m.mvt2"), os.path.join(root, "x.raw")
        with open(path, "wb") as fh:
            fh.write(data)
        np.random.default_rng(0).standard_normal((1, 3, 32, 32)).astype("<f4").tofile(raw)
        try:
            weights.load(path)
            allowed = (0, 1)
        except weights.WeightFileError:
            allowed = (3, 4)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["infer", "--model", path, "--input", raw, "--shape", "1,3,32,32"])
    assert rc in allowed, (rc, err.getvalue())
    if rc == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
