import contextlib
import dataclasses
import errno
import functools
import hashlib
import io
import json
import os
import stat
import struct
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvt2 import cli, weights
from mvt2.blocks import deployed
from mvt2.fusion import RepBranchSpec, main_conv
from mvt2.model import ModelConfig, _blocks, build, deploy, forward, named_tensors
from mvt2.tensor import split_map

from helpers import TINY, counted_submits


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
        with pytest.raises(ValueError, match="float32"):
            weights.save(model, tmp_path / "m.mvt2")


class TestSaveRechecks:
    """``blocks`` is a plain list and the arrays of a built model are
    writable, so both can be edited after the model was built; ``save``
    checks the model again, and every tensor by the per-tensor rule
    ``load`` applies, before it opens the file.  A refused save leaves no
    file."""

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

    def test_a_negative_variance_written_in_place_is_refused(self, tmp_path):
        # ``load`` would refuse the file with a FormatError
        model = build(TINY, 0)
        model.stage2[0].project.main_bn.running_var[0] = -1
        self.refuse(tmp_path, model, "'stage2.0.project_bn.var' holds a negative")

    @staticmethod
    def with_stem0_main(model, **changes):
        """``model`` with ``stem.0``'s main conv made again by
        ``dataclasses.replace``: the one way left to change a built unit."""
        stem0 = model.blocks[0]
        branch = dataclasses.replace(stem0.branch,
                                     main=dataclasses.replace(stem0.branch.main, **changes))
        return dataclasses.replace(model, blocks=[dataclasses.replace(stem0, branch=branch),
                                                  *model.blocks[1:]])

    def test_a_float64_array_assigned_in_a_unit_is_refused(self, tmp_path):
        # written as float32, the file would load as another model
        model = build(TINY, 0)
        main = model.blocks[0].branch.main
        with pytest.raises(dataclasses.FrozenInstanceError):
            main.bias = np.zeros_like(main.bias, dtype=np.float64)
        path = tmp_path / "m.mvt2"
        with pytest.raises(ValueError, match="kernel and bias dtypes differ"):
            weights.save(self.with_stem0_main(
                model, bias=np.zeros_like(main.bias, dtype=np.float64)), path)
        assert not path.exists()

    def test_an_array_of_another_shape_assigned_in_a_unit_is_refused(self, tmp_path):
        # ``load`` would refuse the file with a ShapeError
        model = build(TINY, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.blocks[0].branch.main.bias = np.zeros(2, np.float32)
        path = tmp_path / "m.mvt2"
        with pytest.raises(ValueError, match=r"bias shape \(2,\)"):
            weights.save(self.with_stem0_main(model, bias=np.zeros(2, np.float32)), path)
        assert not path.exists()

    def test_a_grid_assigned_after_building_is_refused(self, tmp_path):
        # a file records no conv's grid: ``load`` would read padding 1 back
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, 1), path)
        before = path.read_bytes()
        model = build(TINY, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.blocks[0].branch.main.padding = 0
        with pytest.raises(ValueError, match="scale padding 0 does not align"):
            weights.save(self.with_stem0_main(model, padding=0), path)
        assert path.read_bytes() == before
        assert weights.load(path).blocks[0].branch.main.padding == 1

    @pytest.mark.parametrize("array", [
        pytest.param(lambda model: model.stage1[0].mixer.main.bias, id="conv_bias"),
        pytest.param(lambda model: model.stage1[0].mixer.main_bn.running_var, id="bn_var"),
    ])
    def test_an_array_reshaped_in_place_is_refused(self, tmp_path, array):
        # the frozen spec cannot see it; ``load`` would refuse the file with a ShapeError
        model = build(TINY, 0)
        array(model).shape = (2, 4)
        match = r"'stage1\.0\.mixer\.main(\.bias|_bn\.var)' is \(2, 4\), not \(8,\)"
        self.refuse(tmp_path, model, match)
        path = tmp_path / "old.mvt2"
        weights.save(build(TINY, 1), path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match=match):
            weights.save(model, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.mvt2"]


def frozen_tree(obj):
    """``obj`` and every dataclass it holds, through lists, depth first."""
    yield obj
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        for v in value if isinstance(value, list) else [value]:
            if dataclasses.is_dataclass(v):
                yield from frozen_tree(v)


class TestFrozen:
    """A model, its blocks and their specs are frozen, so a unit cannot
    leave its geometry row after it is built, and the faults ``save`` once
    looked for can be made only through a constructor, which refuses them."""

    @pytest.mark.parametrize("attention", ["sdta", "mdta"])
    @pytest.mark.parametrize("form", ["train", "deploy"])
    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_no_field_can_be_assigned_and_no_fault_built(self, tmp_path, source, form,
                                                         attention):
        model = build(dataclasses.replace(TINY, attention=attention), seed=0)
        if form == "deploy":
            model = deploy(model)
        path = tmp_path / "m.mvt2"
        weights.save(model, path)
        before = path.read_bytes()
        if source == "loaded":
            model = weights.load(path)

        kinds = set()
        for obj in frozen_tree(model):
            kinds.add(type(obj).__name__)
            for f in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, getattr(obj, f.name))
        specs = {"ConvSpec"} | ({"RepBranchSpec", "BNSpec"} if form == "train" else set())
        attn = "SDTABlock" if attention == "sdta" else "MDTABlock"
        assert kinds == {"Model", "ModelConfig", "RepEmbedBlock", "RepDWBlock", attn} | specs

        stem0 = model.blocks[0]

        def with_stem0(**changes):
            """The model with ``stem.0``'s main conv (its folded conv once
            deployed) made again by ``dataclasses.replace``."""
            conv = dataclasses.replace(main_conv(stem0.branch), **changes)
            unit = dataclasses.replace(stem0.branch, main=conv) if form == "train" else conv
            return dataclasses.replace(model, blocks=[dataclasses.replace(stem0, branch=unit),
                                                      *model.blocks[1:]])

        bias = main_conv(stem0.branch).bias
        grid = ("scale padding 0 does not align" if form == "train"
                else r"RepEmbedBlock unit 'branch' has \(kernel shape, stride, padding, groups\)")
        for changes, match in (({"padding": 0}, grid),
                               ({"bias": bias.astype(np.float64)}, "kernel and bias dtypes differ"),
                               ({"bias": np.zeros(2, np.float32)}, r"bias shape \(2,\)")):
            with pytest.raises(ValueError, match=match):
                weights.save(with_stem0(**changes), path)
        assert path.read_bytes() == before


class TestSaveOverAFile:
    """``save`` writes a new file under a temporary name beside an existing
    regular file it may write and puts it in that file's place in one step;
    every other path is opened as before."""

    def test_a_save_that_fails_part_way_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        before = path.read_bytes()

        class FullDisk:
            """A file whose writes fail after the two headers and the first
            tensor's padding and data."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 4:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(data)

        monkeypatch.setattr(weights, "open", lambda *a, **k: FullDisk(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            weights.save(build(TINY, seed=1), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.mvt2"]

    def test_the_new_files_mode_comes_from_the_umask(self, tmp_path):
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        path.chmod(0o600)
        umask = os.umask(0o027)
        try:
            weights.save(build(TINY, seed=1), path)
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_a_new_inode_with_the_bytes_of_a_fresh_save(self, tmp_path):
        path, fresh, hard = tmp_path / "m.mvt2", tmp_path / "fresh.mvt2", tmp_path / "hard.mvt2"
        weights.save(build(TINY, seed=0), path)
        old = path.read_bytes()
        os.link(path, hard)
        model = deploy(build(TINY, seed=1))
        weights.save(model, path)
        weights.save(model, fresh)
        assert path.stat().st_ino != hard.stat().st_ino
        assert path.read_bytes() == fresh.read_bytes()
        assert hard.read_bytes() == old

    def test_a_symlink_is_followed_and_kept(self, tmp_path):
        target, link, fresh = tmp_path / "t.mvt2", tmp_path / "link.mvt2", tmp_path / "f.mvt2"
        weights.save(build(TINY, seed=0), target)
        link.symlink_to(target.name)
        model = build(TINY, seed=1)
        weights.save(model, link)
        weights.save(model, fresh)
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == fresh.read_bytes()

    @staticmethod
    def assert_loads_as(path, model):
        saved = {name: arr.tobytes() for name, arr in named_tensors(model)}
        assert {name: arr.tobytes() for name, arr in named_tensors(weights.load(path))} == saved
        assert os.listdir(path.parent) == [path.name]

    def test_without_an_exchange_the_new_file_is_renamed_over_the_old(self, tmp_path,
                                                                      monkeypatch):
        # a filesystem without RENAME_EXCHANGE
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        inode, replaced = path.stat().st_ino, []
        real = os.replace
        monkeypatch.setattr(weights, "_exchange", lambda a, b: False)
        monkeypatch.setattr(os, "replace", lambda a, b: replaced.append(b) or real(a, b))
        model = build(TINY, seed=1)
        weights.save(model, path)
        assert replaced == [os.path.realpath(path)] and path.stat().st_ino != inode
        self.assert_loads_as(path, model)

    def test_a_directory_refusing_a_new_file_gets_the_old_one_rewritten(self, tmp_path,
                                                                          monkeypatch):
        # a read-only directory holding a writable file
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        inode, real = path.stat().st_ino, os.open

        def no_new_file(name, *args, **kwargs):
            if os.fsdecode(name).endswith(".tmp"):
                raise OSError(errno.EACCES, os.strerror(errno.EACCES), name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(os, "open", no_new_file)
        model = build(TINY, seed=1)
        weights.save(model, path)
        assert path.stat().st_ino == inode
        self.assert_loads_as(path, model)

    def test_a_refused_save_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        before, inode = path.read_bytes(), path.stat().st_ino
        model = build(TINY, seed=1)
        dict(_blocks(model))["stage2.0"].project.main_bn.beta[1] = np.nan
        with pytest.raises(ValueError, match="holds a NaN"):
            weights.save(model, path)
        assert path.read_bytes() == before and path.stat().st_ino == inode

    @pytest.mark.skipif(getattr(os, "geteuid", lambda: -1)() == 0,
                        reason="root may write a read-only file")
    def test_a_read_only_file_is_refused(self, tmp_path):
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        before = path.read_bytes()
        path.chmod(0o444)
        with pytest.raises(OSError):
            weights.save(build(TINY, seed=1), path)
        assert path.read_bytes() == before

    def test_a_file_named_as_a_directory_is_refused(self, tmp_path):
        path = tmp_path / "m.mvt2"
        weights.save(build(TINY, seed=0), path)
        before = path.read_bytes()
        with pytest.raises(OSError):
            weights.save(build(TINY, seed=1), f"{path}/")
        assert path.read_bytes() == before

    def test_fuse_out_a_directory_exits_3_and_keeps_it(self, tmp_path, capsys):
        train, out = tmp_path / "m.mvt2", tmp_path / "out"
        weights.save(build(TINY, seed=0), train)
        out.mkdir()
        (out / "kept").write_bytes(b"kept")
        assert cli.main(["fuse", "--in", str(train), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert (out / "kept").read_bytes() == b"kept"


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

    @pytest.mark.parametrize("size", [4, 15])
    def test_file_ends_inside_the_fixed_header(self, tmp_path, size):
        path = self.make(tmp_path)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(weights.TruncatedPayloadError, match="shorter than the fixed header"):
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
        # the stranger has its own aligned region past the payload, so the
        # manifest is sound and only the name is refused
        path = self.make(tmp_path)
        payload_len = path.stat().st_size - payload_start(path)
        offset = -(-payload_len // weights.ALIGNMENT) * weights.ALIGNMENT

        def add_stranger(header):
            header["tensors"].append({"name": "not.a.real.tensor", "dtype": "f32",
                                      "shape": [2], "byte_offset": offset, "byte_len": 8})

        rewrite_header(path, add_stranger)
        with open(path, "ab") as fh:
            fh.write(bytes(offset - payload_len) + np.ones(2, dtype="<f4").tobytes())
        with pytest.raises(weights.FormatError, match="unknown tensors"):
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


def first_entry(**fields):
    return lambda h: h["tensors"][0].update(fields)


# one case per fault ``load`` finds in the manifest, with its error and
# message; the first entry is stem.0's main kernel, at byte offset 0
MANIFEST_FAULTS = [
    pytest.param(lambda h: h.update(tensors={}), weights.FormatError, "is not a list",
                 id="tensors-an-object"),
    pytest.param(lambda h: h["tensors"][0].pop("dtype"), weights.FormatError,
                 "must be an object with keys", id="entry-without-dtype"),
    pytest.param(first_entry(name=7), weights.FormatError, "7 is not a string",
                 id="name-a-number"),
    pytest.param(lambda h: h["tensors"].insert(1, h["tensors"][0]), weights.DuplicateNameError,
                 "listed more than once", id="name-twice"),
    pytest.param(first_entry(dtype="f64"), weights.FormatError, "unsupported dtype 'f64'",
                 id="dtype-f64"),
    pytest.param(lambda h: h["tensors"][0]["shape"].__setitem__(0, True), weights.FormatError,
                 "is not a list of counts", id="shape-holds-true"),
    pytest.param(lambda h: h["tensors"][0]["shape"].__setitem__(1, 3.0), weights.FormatError,
                 "is not a list of counts", id="shape-holds-a-float"),
    pytest.param(lambda h: h["tensors"][0]["shape"].__setitem__(2, -3), weights.FormatError,
                 "is not a list of counts", id="shape-holds-a-negative"),
    pytest.param(first_entry(byte_offset=False), weights.FormatError, "must be counts",
                 id="offset-false"),
    pytest.param(first_entry(byte_len=None), weights.FormatError, "must be counts",
                 id="length-null"),
    pytest.param(first_entry(byte_len=4), weights.FormatError, "does not match shape",
                 id="length-not-the-shape"),
    pytest.param(first_entry(byte_offset=32), weights.FormatError, "64-byte aligned",
                 id="offset-misaligned"),
    pytest.param(first_entry(byte_offset=1 << 40), weights.TruncatedPayloadError,
                 "payload ends inside tensor", id="offset-past-the-payload"),
    pytest.param(lambda h: h["tensors"][1].update(byte_offset=0), weights.FormatError,
                 "regions overlap", id="regions-overlap"),
]


@pytest.mark.parametrize("mutate, error, message", MANIFEST_FAULTS)
def test_manifest_fault_has_its_error_and_message(tmp_path, mutate, error, message):
    path = tmp_path / "m.mvt2"
    weights.save(build(TINY, seed=0), path)
    rewrite_header(path, mutate)
    with pytest.raises(error, match=message) as caught:
        weights.load(path)
    assert type(caught.value) is error


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
        # more stage blocks than listed tensors: refused at the first missing one
        pytest.param(lambda h: h["config"].update(depths=[200000, 1, 1]),
                     id="deeper-than-the-manifest"),
        pytest.param(lambda h: h.update(tensors=[]), id="no-tensors"),
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
        model, path = multi_chunk_file(tmp_path)
        last = list(named_tensors(model))[-1][0]
        patch_payload(path, last, 0, np.inf)
        with pytest.raises(weights.FormatError, match=f"tensor '{last}' holds a NaN"):
            weights.load(path)

    def test_a_fault_in_each_half_names_the_first(self, tmp_path, monkeypatch):
        """The caller reads and screens the payload's first half and the
        library's worker the second; a NaN in the first half and an
        infinity in the second name the NaN's tensor, the first in
        execution order."""
        _, path = multi_chunk_file(tmp_path)
        caller, worker = tensors_by_half(path, monkeypatch)
        patch_payload(path, caller[-1], 0, np.nan)
        patch_payload(path, worker[0], 0, np.inf)
        with pytest.raises(weights.FormatError, match=f"tensor '{caller[-1]}' holds a NaN"):
            weights.load(path)


def multi_chunk_file(tmp_path):
    """A TINY model at dims (32, 64, 128), saved: its payload is about four
    read chunks, so ``load`` splits it over two threads."""
    model = build(dataclasses.replace(TINY, dims=(32, 64, 128)), seed=0)
    path = tmp_path / "m.mvt2"
    weights.save(model, path)
    assert path.stat().st_size > 4 * weights._READ_CHUNK * 3
    return model, path


def payload_start(path) -> int:
    with open(path, "rb") as fh:
        return FIXED.size + FIXED.unpack(fh.read(FIXED.size))[2]


def read_offsets(path, monkeypatch) -> tuple[list, list]:
    """The file offsets ``load`` reads ``path`` at on the calling thread and
    on other threads, each sorted."""
    real, calls, me = os.preadv, [], threading.get_ident()

    def preadv(fd, buffers, offset):
        calls.append((threading.get_ident() == me, offset))
        return real(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", preadv)
    weights.load(path)
    monkeypatch.setattr(os, "preadv", real)
    return [sorted(o for mine, o in calls if mine is side) for side in (True, False)]


def tensors_by_half(path, monkeypatch) -> tuple[list, list]:
    """The names of the tensors wholly in the calling thread's half of the
    payload and wholly in the worker's, in payload order."""
    caller, worker = read_offsets(path, monkeypatch)
    assert caller and worker and caller[-1] < worker[0]
    split = worker[0] - payload_start(path)
    entries = sorted(weights.read_header(path)["tensors"], key=lambda e: e["byte_offset"])
    return ([e["name"] for e in entries if e["byte_offset"] + e["byte_len"] <= split],
            [e["name"] for e in entries if e["byte_offset"] >= split])


class TestTwoThreadRead:
    """``load`` reads and screens the first half of a payload's chunks on
    the calling thread and the second on the library's worker, each with
    positional reads, so no file offset is shared."""

    def test_a_short_read_in_the_workers_half_raises_after_the_callers_half(
            self, tmp_path, monkeypatch):
        _, path = multi_chunk_file(tmp_path)
        caller, worker = read_offsets(path, monkeypatch)
        real, done, me = os.preadv, [], threading.get_ident()

        def preadv(fd, buffers, offset):
            if threading.get_ident() == me:
                time.sleep(0.05)  # the worker's short read comes first
            n = real(fd, buffers, offset)
            done.append(offset)
            return n - 4 if offset == worker[0] else n

        monkeypatch.setattr(os, "preadv", preadv)
        with pytest.raises(weights.TruncatedPayloadError, match="payload ends inside a tensor"):
            weights.load(path)
        assert set(caller) <= set(done) and worker[0] in done

    def test_two_threads_loading_one_file_get_its_tensors(self, tmp_path):
        model, path = multi_chunk_file(tmp_path)
        saved = [a.tobytes() for _, a in named_tensors(model)]
        start = threading.Barrier(2, timeout=60)

        def run(_):
            start.wait()
            return [[a.tobytes() for _, a in named_tensors(weights.load(path))] == saved
                    for _ in range(8)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(2) as pool:
                results = list(pool.map(run, (0, 1), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [[True] * 8] * 2

    def test_a_load_on_the_worker_reads_serially_there(self, tmp_path):
        model, path = multi_chunk_file(tmp_path)
        saved = [a.tobytes() for _, a in named_tensors(model)]

        def load(p):
            return threading.current_thread().name, [
                a.tobytes() for _, a in named_tensors(weights.load(p))]

        (first, a), (second, b) = split_map(load, [path, path])
        assert first == threading.current_thread().name and second.startswith("mvt2-split")
        assert a == b == saved

    def test_a_one_chunk_payload_is_read_on_the_caller_alone(self, tmp_path):
        model = build(TINY, seed=0)
        path = tmp_path / "m.mvt2"
        weights.save(model, path)
        assert path.stat().st_size - payload_start(path) <= 4 * weights._READ_CHUNK
        with counted_submits() as submits:
            loaded = weights.load(path)
        assert submits == []
        assert [a.tobytes() for _, a in named_tensors(loaded)] == [
            a.tobytes() for _, a in named_tensors(model)]


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


# JSON values that no header field holds as valid, and the two modes
HOSTILE_VALUES = [0, -1, 1.5, "", "x", "train", "deploy", None, [], [8], {}, {"k": 1},
                  2**63, True, False]


def json_slots(obj):
    """(container, key) for every value inside the JSON object ``obj``, the
    elements of its lists (a shape's counts, say) included."""
    for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        yield obj, key
        if isinstance(value, (dict, list)):
            yield from json_slots(value)


@st.composite
def hostile_files(draw):
    """A TINY train or deploy file, mutated as a hostile writer might: 1-4
    random byte overwrites, with a truncation 30% of the time; a hostile
    JSON value in place of the mode or of any value inside the config, one
    manifest entry or the preprocessing recipe (list elements such as a
    shape's counts included), or under an unknown config key; or the
    manifest entries reordered."""
    data = tiny_file_bytes(draw(st.sampled_from(["train", "deploy"])))
    kind = draw(st.sampled_from(["bytes", "json", "reorder"]))
    if kind == "bytes":
        data = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        if draw(st.integers(0, 9)) < 3:
            del data[draw(st.integers(0, len(data) - 1)):]
        return bytes(data)
    header_end = FIXED.size + FIXED.unpack_from(data)[2]
    header = json.loads(data[FIXED.size:header_end])
    if kind == "reorder":
        header["tensors"] = draw(st.permutations(header["tensors"]))
    else:
        value = draw(st.sampled_from(HOSTILE_VALUES))
        where = draw(st.sampled_from(["config", "entry", "mode", "preprocessing", "new key"]))
        if where == "mode":
            header["mode"] = value
        elif where == "new key":
            header["config"]["extra"] = value
        else:
            fields = {"config": header["config"], "preprocessing": header["preprocessing"],
                      "entry": draw(st.sampled_from(header["tensors"]))}[where]
            parent, key = draw(st.sampled_from(list(json_slots(fields))))
            parent[key] = value
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return FIXED.pack(weights.MAGIC, weights.VERSION, len(text)) + text + data[header_end:]


def cli_outcome(argv):
    """``cli.main(argv)`` in-process: (exit code, stdout, stderr), after
    checking that stdout is empty or one JSON document and that a failure
    is one ``error:`` line on stderr with nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    if rc == 0:
        json.loads(out)
    else:
        assert out == "", (rc, out)
        assert err.startswith("error: ") and err.count("\n") == 1, (rc, err)
    return rc, out, err


def same_tensors(a, b):
    return [(n, t.shape, t.tobytes()) for n, t in named_tensors(a)] == [
        (n, t.shape, t.tobytes()) for n, t in named_tensors(b)]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=hostile_files())
def test_hostile_file_keeps_the_fault_contract(data):
    """``infer`` and ``fuse`` on a hostile file exit 0, 1 (a non-finite
    result) or 4, never with a traceback; a file that loads saves and
    loads back to the same tensors, and a failed ``fuse`` writes nothing."""
    with tempfile.TemporaryDirectory() as root:
        path, raw, fused, again = (os.path.join(root, name)
                                   for name in ("m.mvt2", "x.raw", "d.mvt2", "s.mvt2"))
        with open(path, "wb") as fh:
            fh.write(data)
        np.random.default_rng(0).standard_normal((1, 3, 32, 32)).astype("<f4").tofile(raw)
        try:
            model = weights.load(path)
        except weights.WeightFileError:
            model = None
        allowed = (4,) if model is None else (0, 1)
        rc, _, err = cli_outcome(["infer", "--model", path, "--input", raw, "--shape", "1,3,32,32"])
        assert rc in allowed, (rc, err)
        if model is not None:
            weights.save(model, again)
            assert same_tensors(weights.load(again), model)
        rc, _, err = cli_outcome(["fuse", "--in", path, "--out", fused])
        assert rc in allowed, (rc, err)
        assert os.path.exists(fused) == (rc == 0)
        if rc == 0:
            assert same_tensors(weights.load(fused), deploy(model))


@st.composite
def hostile_inputs(draw):
    """``infer``'s raw input and ``--shape`` for a sound TINY file, and the
    exit code each fault has: a whole number of floats other than the
    shape's (5), a NaN or an infinity (5), a shape that is not four
    integers (2), or a missing input or weight file (3).  A missing file's
    bytes are None."""
    x = np.random.default_rng(draw(st.integers(0, 3))).standard_normal(3 * 32 * 32)
    kind = draw(st.sampled_from(["count", "non-finite", "shape", "no input", "no model"]))
    shape = "1,3,32,32"
    if kind == "count":
        x = np.resize(x, draw(st.integers(0, 2 * x.size).filter(lambda k: k != x.size)))
    elif kind == "non-finite":
        x[draw(st.integers(0, x.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "shape":
        shape = draw(st.sampled_from(["1,3,32", "1,3,32,32,1", "a,b,c,d", "1.5,3,32,32",
                                      "", "1;3;32;32", "1,3,32,"]))
    model = tiny_file_bytes(draw(st.sampled_from(["train", "deploy"])))
    model = None if kind == "no model" else model
    data = None if kind == "no input" else x.astype("<f4").tobytes()
    code = {"count": 5, "non-finite": 5, "shape": 2}.get(kind, 3)
    return model, data, shape, code


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(case=hostile_inputs())
def test_hostile_input_has_its_exit_code(case):
    model, data, shape, code = case
    with tempfile.TemporaryDirectory() as root:
        path, raw = os.path.join(root, "m.mvt2"), os.path.join(root, "x.raw")
        for name, content in ((path, model), (raw, data)):
            if content is not None:
                with open(name, "wb") as fh:
                    fh.write(content)
        rc, _, err = cli_outcome(["infer", "--model", path, "--input", raw, "--shape", shape])
    assert rc == code, (rc, err)
