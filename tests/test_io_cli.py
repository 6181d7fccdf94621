import contextlib
import copy
import dataclasses
import functools
import io
import json
import operator
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mapt import cli, errors, geometry
from mapt.cli import main
from mapt.errors import FormatError, InvalidValueError, NumericOverflowError, ShapeError
from mapt.geometry import DepthAlongRay, FactoredScene, FactoredView, Pose, RayMap, quat_to_rot
from mapt.io import (
    _json_text,
    read_covis,
    read_factored,
    read_model_config,
    read_scene,
    read_tensor,
    write_factored,
    write_ply,
    write_scene,
    write_tensor,
)
from mapt.synth import AnalyticScene, SceneSample, gen_scene
from mapt.viewgraph import covisibility

from oracles import parse_ply, write_ply_reference


class TestTensorContainer:
    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4), (1, 2, 3, 4)])
    def test_f32_round_trip_bit_exact(self, tmp_path, shape):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=shape).astype(np.float32)
        path = tmp_path / "t.mapt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, arr)

    def test_u8_and_bool(self, tmp_path):
        arr = (np.arange(12).reshape(3, 4) % 3 == 0)
        write_tensor(tmp_path / "b.mapt", arr)
        back = read_tensor(tmp_path / "b.mapt")
        assert back.dtype == np.uint8
        np.testing.assert_array_equal(back != 0, arr)

    def test_float64_written_as_f32(self, tmp_path):
        arr = np.array([1.0, np.pi, 1e-8])
        write_tensor(tmp_path / "f.mapt", arr)
        np.testing.assert_array_equal(read_tensor(tmp_path / "f.mapt"), arr.astype(np.float32))

    def test_header_layout(self, tmp_path):
        write_tensor(tmp_path / "h.mapt", np.zeros((2, 3), dtype=np.float32))
        raw = (tmp_path / "h.mapt").read_bytes()
        assert raw[:4] == b"MAPT"
        assert raw[4] == 1  # version
        assert raw[5] == 1  # f32
        assert raw[6] == 2  # ndim
        assert int.from_bytes(raw[7:11], "little") == 2
        assert int.from_bytes(raw[11:15], "little") == 3
        assert len(raw) == 15 + 24

    def test_rejects_bad_magic(self, tmp_path):
        (tmp_path / "bad.mapt").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_tensor(tmp_path / "bad.mapt")

    def test_rejects_truncated_header(self, tmp_path):
        write_tensor(tmp_path / "t.mapt", np.zeros((2, 3, 4), dtype=np.float32))
        raw = (tmp_path / "t.mapt").read_bytes()
        (tmp_path / "t.mapt").write_bytes(raw[:13])  # ndim 3 needs 12 header bytes after byte 7
        with pytest.raises(FormatError, match="truncated tensor header"):
            read_tensor(tmp_path / "t.mapt")

    def test_rejects_dims_whose_product_wraps_around(self, tmp_path):
        # 65536 ** 4 == 2 ** 64: a uint64 element count wraps to 0 and would match the empty payload
        (tmp_path / "w.mapt").write_bytes(b"MAPT" + struct.pack("<BBB4I", 1, 1, 4, *[65536] * 4))
        with pytest.raises(FormatError, match="payload size mismatch"):
            read_tensor(tmp_path / "w.mapt")

    def test_rejects_huge_dims_beside_a_zero(self, tmp_path):
        # an empty payload matches the element count 0, but numpy cannot hold the shape
        (tmp_path / "z.mapt").write_bytes(b"MAPT" + struct.pack("<BBB4I", 1, 1, 4, 0, *[2**32 - 1] * 3))
        with pytest.raises(FormatError, match="unsupported tensor shape"):
            read_tensor(tmp_path / "z.mapt")

    @settings(max_examples=300, deadline=None)
    @given(
        arr=hnp.arrays(
            st.sampled_from([np.float32, np.uint8, np.bool_]),
            hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
        ),
        mutation=st.one_of(
            st.tuples(st.just("header"), st.integers(0, 2**16), st.integers(1, 255)),
            st.tuples(st.just("cut"), st.integers(1, 24)),
            st.tuples(st.just("extend"), st.binary(min_size=1, max_size=24)),
            st.just(("none",)),
        ),
    )
    def test_mutated_files_fail_or_round_trip(self, arr, mutation):
        """Each file read_tensor accepts is exactly what write_tensor writes
        for the array it returns; every other file is a FormatError."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.mapt"
            write_tensor(path, arr)
            data = path.read_bytes()
            if mutation[0] == "none":
                back = read_tensor(path)
                stored = arr.astype(np.uint8) if arr.dtype == np.bool_ else arr
                assert back.dtype == stored.dtype and back.shape == arr.shape
                assert back.tobytes() == stored.tobytes()
                return
            if mutation[0] == "header":  # magic, version, dtype code, ndim or a dim byte
                k = mutation[1] % (7 + 4 * arr.ndim)
                data = data[:k] + bytes([(data[k] + mutation[2]) % 256]) + data[k + 1 :]
            elif mutation[0] == "cut":
                data = data[: max(0, len(data) - mutation[1])]
            else:
                data = data + mutation[1]
            path.write_bytes(data)
            try:
                back = read_tensor(path)
            except FormatError:
                return
            write_tensor(path, back)
            assert path.read_bytes() == data


class TestLeanReader:
    """The contract of the reader that opens each tensor file once: what it
    returns, and the errors a directory of odd files gives through
    read_scene, read_factored and the CLI."""

    @pytest.fixture
    def no_hang(self):
        """Fail a read that blocks (on a FIFO, say) instead of hanging the suite."""

        def hung(signum, frame):
            pytest.fail("the read blocked")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture
    def dirs(self, tmp_path):
        """A ground-truth scene directory and a predicted one (with confidence tensors)."""
        _, sample = gen_scene(n_views=2, width=16, height=12, n_spheres=3, seed=33)
        write_scene(tmp_path / "s", sample)
        write_factored(tmp_path / "p", sample.as_factored_scene())
        return tmp_path / "s", tmp_path / "p"

    @staticmethod
    def _cli_error(capsys, scene) -> str:
        assert main(["covis", "--scene", str(scene)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: format: ")
        return err[0]

    @pytest.mark.parametrize("kind", ["fifo", "directory", "dangling link"])
    def test_non_regular_tensor_file_is_missing(self, dirs, capsys, no_hang, kind):
        for d in dirs:
            path = d / "view_000_depth.mapt"
            path.unlink()
            if kind == "fifo":
                os.mkfifo(path)
            elif kind == "directory":
                path.mkdir()
            else:
                path.symlink_to(d / "nowhere.mapt")
            message = f"{d}: missing tensor file for 'depth'"
            for reader in (read_scene, read_factored):
                with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
                    reader(d)
        assert self._cli_error(capsys, dirs[0]) == f"error: format: {dirs[0]}: missing tensor file for 'depth'"

    @pytest.mark.parametrize("kind", ["missing", "fifo", "directory", "dangling link"])
    def test_non_regular_confidence_file_is_missing(self, dirs, capsys, no_hang, kind):
        # a listed confidence tensor goes through the check of the other slots, before any read
        path = dirs[1] / "view_001_confidence.mapt"
        path.unlink()
        if kind == "fifo":
            os.mkfifo(path)
        elif kind == "directory":
            path.mkdir()
        elif kind == "dangling link":
            path.symlink_to(dirs[1] / "nowhere.mapt")
        message = f"{dirs[1]}: missing tensor file for 'confidence'"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            read_factored(dirs[1])
        assert main(["export-ply", "--scene", str(dirs[1]), "--out", str(dirs[1].parent / "p.ply")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: format: {message}"]

    def test_read_tensor_of_a_fifo_does_not_block(self, tmp_path, no_hang):
        os.mkfifo(tmp_path / "t.mapt")
        with pytest.raises(FormatError, match="not a regular file"):
            read_tensor(tmp_path / "t.mapt")
        with pytest.raises(IsADirectoryError):
            read_tensor(tmp_path)

    def test_missing_depth_is_reported_before_corrupt_rays(self, dirs, capsys):
        for d in dirs:
            (d / "view_000_depth.mapt").unlink()
            (d / "view_000_rays.mapt").write_bytes(b"NOPE")
            for reader in (read_scene, read_factored):
                with pytest.raises(FormatError, match=re.escape(f"{d}: missing tensor file for 'depth'")):
                    reader(d)
        assert "missing tensor file for 'depth'" in self._cli_error(capsys, dirs[0])

    def test_short_payload_is_a_size_mismatch(self, dirs, capsys):
        path = dirs[0] / "view_001_validity.mapt"
        path.write_bytes(path.read_bytes()[:-1])
        for reader in (read_scene, read_factored):
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: payload size mismatch$"):
                reader(dirs[0])
        assert self._cli_error(capsys, dirs[0]) == f"error: format: {path}: payload size mismatch"

    def test_read_that_comes_up_short_is_a_size_mismatch(self, tmp_path, monkeypatch):
        # fstat reports the size the header promises, but the file ends one element early:
        # the read comes up short, and no unread part of the array is returned
        path = tmp_path / "t.mapt"
        write_tensor(path, np.arange(6, dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((*fstat(fd)[:6], fstat(fd).st_size + 4, *fstat(fd)[7:10])))
        with pytest.raises(FormatError, match="payload size mismatch"):
            read_tensor(path)

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0), (0, 2, 3), (5,), (4, 3), (2, 3, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.uint8, np.bool_, np.float64])
    def test_read_tensor_returns_writable_contiguous_arrays(self, tmp_path, shape, dtype):
        arr = (np.arange(int(np.prod(shape))) % 3).astype(dtype).reshape(shape)
        write_tensor(tmp_path / "t.mapt", arr)
        back = read_tensor(tmp_path / "t.mapt")
        assert back.dtype == (np.uint8 if dtype in (np.uint8, np.bool_) else np.float32)
        assert back.shape == shape
        assert back.flags.writeable and back.flags.c_contiguous
        np.testing.assert_array_equal(back, arr.astype(back.dtype))

    def test_overwriting_longer_files_leaves_no_stale_bytes(self, tmp_path):
        # the writers cut a file at the end of what they wrote, not before it
        _, big = gen_scene(n_views=3, width=24, height=18, n_spheres=3, seed=5)
        _, small = gen_scene(n_views=2, width=16, height=12, n_spheres=3, seed=6)
        for write, a, b in ((write_scene, big, small), (write_factored, big.as_factored_scene(), small.as_factored_scene())):
            write(tmp_path / "fresh", b)
            write(tmp_path / "over", a)
            write(tmp_path / "over", b)
            for f in sorted((tmp_path / "fresh").iterdir()):
                assert (tmp_path / "over" / f.name).read_bytes() == f.read_bytes()
            shutil.rmtree(tmp_path / "fresh")
            shutil.rmtree(tmp_path / "over")
        pts = np.arange(60, dtype=np.float64).reshape(20, 3)
        write_ply(tmp_path / "fresh.ply", pts[:5], np.zeros((5, 3)))
        write_ply(tmp_path / "over.ply", pts, np.zeros((20, 3)))
        write_ply(tmp_path / "over.ply", pts[:5], np.zeros((5, 3)))
        assert (tmp_path / "over.ply").read_bytes() == (tmp_path / "fresh.ply").read_bytes()

    def test_write_tensor_writes_non_contiguous_arrays_in_c_order(self, tmp_path):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)
        for view in (arr.T, arr[::2, ::3], np.asfortranarray(arr)):
            write_tensor(tmp_path / "t.mapt", view)
            raw = (tmp_path / "t.mapt").read_bytes()
            assert raw[7 + 4 * view.ndim :] == np.ascontiguousarray(view, dtype=np.float32).tobytes()
            np.testing.assert_array_equal(read_tensor(tmp_path / "t.mapt"), view.astype(np.float32))


class TestSceneRoundTrip:
    def test_ground_truth_round_trip(self, tmp_path):
        _, sample = gen_scene(n_views=3, width=24, height=18, n_spheres=4, seed=31)
        write_scene(tmp_path / "s", sample)
        back = read_scene(tmp_path / "s")
        assert back.scale.value == sample.scale.value
        for va, vb in zip(sample.views, back.views):
            # rays are float32-quantized at generation: exact round trip
            np.testing.assert_array_equal(va.rays.directions, vb.rays.directions)
            np.testing.assert_array_equal(va.depth.validity, vb.depth.validity)
            np.testing.assert_array_equal(
                vb.depth.values, va.depth.values.astype(np.float32).astype(np.float64)
            )
            np.testing.assert_array_equal(va.mask, vb.mask)
            # poses and intrinsics pass through JSON repr exactly
            np.testing.assert_array_equal(va.pose.rotation, vb.pose.rotation)
            np.testing.assert_array_equal(va.pose.translation, vb.pose.translation)
            assert va.intrinsics == vb.intrinsics

    def test_factored_reader_on_gt_dir(self, tmp_path):
        _, sample = gen_scene(n_views=2, width=16, height=12, n_spheres=3, seed=32)
        write_scene(tmp_path / "s", sample)
        fs = read_factored(tmp_path / "s")
        assert fs.n_views == 2
        assert fs.views[0].confidence is None
        np.testing.assert_array_equal(fs.views[0].mask_prob, sample.views[0].mask.astype(np.float64))

    def test_empty_view_is_not_written(self, tmp_path):
        # the reader rejects a 0-size view, so the writer must not produce one
        empty = FactoredView(RayMap(np.zeros((0, 0, 3))), DepthAlongRay(np.zeros((0, 0)), np.zeros((0, 0), bool)), Pose.identity())
        with pytest.raises(FormatError, match="positive width and height"):
            write_factored(tmp_path / "s", FactoredScene(views=[empty]))
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("tensor", ["depth", "confidence"])
    def test_values_beyond_float32_are_not_written(self, tmp_path, tensor):
        # the float32 cast would store inf, which the reader rejects; float32's
        # largest value itself round-trips
        for value in (float(np.finfo(np.float32).max), 1e39):
            arrays = {"depth": np.ones((2, 2)), "confidence": np.ones((2, 2))}
            arrays[tensor][1, 0] = value
            view = FactoredView(
                RayMap(np.tile([0.0, 0.0, 1.0], (2, 2, 1))), DepthAlongRay(arrays["depth"], np.ones((2, 2), bool)),
                Pose.identity(), confidence=arrays["confidence"],
            )
            path = tmp_path / f"s{value:g}"
            if value == 1e39:
                with pytest.raises(NumericOverflowError, match="tensor values must be within float32 range"):
                    write_factored(path, FactoredScene(views=[view]))
                assert not path.exists()
            else:
                write_factored(path, FactoredScene(views=[view]))
                back = read_factored(path).views[0]
                np.testing.assert_array_equal(back.depth.values, arrays["depth"])
                np.testing.assert_array_equal(back.confidence, arrays["confidence"])

    def test_view_zero_off_identity_is_not_written(self, tmp_path):
        # read_scene rejects such a directory, so write_scene must not write one;
        # one predicate decides for both, so an offset within 1e-12 round-trips
        _, sample = gen_scene(n_views=2, width=16, height=12, n_spheres=3, seed=37)
        for offset in (1e-9, 1e-13):
            v0 = dataclasses.replace(sample.views[0], pose=Pose([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, offset]))
            path = tmp_path / f"s{offset:g}"
            if offset > 1e-12:
                with pytest.raises(FormatError, match=re.escape(f"{path}: ground-truth view 0 pose must be identity")):
                    write_scene(path, SceneSample([v0, sample.views[1]], sample.scale))
                assert not path.exists()
            else:
                write_scene(path, SceneSample([v0, sample.views[1]], sample.scale))
                assert read_scene(path).views[0].pose.translation[2] == offset

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FormatError):
            read_scene(tmp_path)

    def test_missing_tensor_raises(self, tmp_path):
        _, sample = gen_scene(n_views=2, width=16, height=12, n_spheres=3, seed=33)
        write_scene(tmp_path / "s", sample)
        (tmp_path / "s" / "view_001_depth.mapt").unlink()
        with pytest.raises(FormatError):
            read_scene(tmp_path / "s")

    def test_manifest_not_json(self, tmp_path):
        _, sample = gen_scene(n_views=2, width=16, height=12, n_spheres=3, seed=34)
        write_scene(tmp_path / "s", sample)
        (tmp_path / "s" / "scene.json").write_text('{"version": 1, "views": [')
        with pytest.raises(FormatError, match="not valid JSON"):
            read_scene(tmp_path / "s")
        with pytest.raises(FormatError, match="not valid JSON"):
            read_factored(tmp_path / "s")

    @pytest.mark.parametrize("key", ["pose", "files", "width", "height"])
    def test_manifest_view_missing_key(self, tmp_path, key):
        _, sample = gen_scene(n_views=2, width=16, height=12, n_spheres=3, seed=35)
        write_scene(tmp_path / "s", sample)
        manifest = json.loads((tmp_path / "s" / "scene.json").read_text())
        del manifest["views"][1][key]
        (tmp_path / "s" / "scene.json").write_text(json.dumps(manifest))
        for reader in (read_scene, read_factored):
            with pytest.raises(FormatError, match=f"view 1 lacks '{key}'"):
                reader(tmp_path / "s")

    @pytest.mark.parametrize("value", [True, 1.0, "1"])
    @pytest.mark.parametrize("key, message", [("version", "unsupported manifest version"), ("n_views", "view count does not match")])
    def test_manifest_counts_are_json_integers(self, tmp_path, key, message, value):
        # a one-view scene: JSON true and 1.0 are not its version or view count 1
        _, sample = gen_scene(n_views=1, width=16, height=12, n_spheres=3, seed=36)
        write_scene(tmp_path / "s", sample)
        manifest = json.loads((tmp_path / "s" / "scene.json").read_text())
        (tmp_path / "s" / "scene.json").write_text(json.dumps({**manifest, key: value}))
        for reader in (read_scene, read_factored):
            with pytest.raises(FormatError, match=message):
                reader(tmp_path / "s")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: [m], "must be a JSON object"),
            (lambda m: {k: v for k, v in m.items() if k != "metric_scale"}, "lacks 'metric_scale'"),
            (lambda m: {**m, "views": [m["views"][0], 3]}, "view 1 must be a JSON object"),
        ],
    )
    def test_manifest_malformed_structure(self, tmp_path, edit, message):
        _, sample = gen_scene(n_views=2, width=16, height=12, n_spheres=3, seed=36)
        write_scene(tmp_path / "s", sample)
        manifest = json.loads((tmp_path / "s" / "scene.json").read_text())
        (tmp_path / "s" / "scene.json").write_text(json.dumps(edit(manifest)))
        with pytest.raises(FormatError, match=message):
            read_scene(tmp_path / "s")

    def test_reread_composition_matches_raycast(self, tmp_path):
        scene, sample = gen_scene(n_views=3, width=32, height=24, n_spheres=4, seed=34, plane=True)
        write_scene(tmp_path / "s", sample)
        back = read_scene(tmp_path / "s")
        m = back.scale.value
        for v in back.views:
            rot = quat_to_rot(v.pose.rotation)
            world_dirs = v.rays.directions @ rot.T
            valid = np.argwhere(v.depth.validity)
            composed = m * (
                (v.rays.directions * v.depth.values[:, :, None]) @ rot.T + v.pose.translation
            )
            for py, px in valid[:: max(1, len(valid) // 100)]:
                # the stored direction itself (unit within the f32 quantization
                # slack); depth is the ray parameter along exactly this vector
                d = world_dirs[py, px]
                from mapt.synth import raycast

                t = raycast(scene, v.pose.translation, d)
                assert t is not None
                expect = m * (v.pose.translation + d * t)
                assert np.max(np.abs(composed[py, px] - expect)) < 1e-6


def _dir_bytes(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestCli:
    def test_synth_deterministic_byte_identical(self, tmp_path):
        args = ["synth", "--seed", "9", "--views", "3", "--size", "24x18", "--spheres", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a, b = _dir_bytes(tmp_path / "a"), _dir_bytes(tmp_path / "b")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], name

    def test_single_view_manifest(self, tmp_path):
        assert main(["synth", "--seed", "1", "--views", "1", "--size", "16x16", "--spheres", "3", "--out", str(tmp_path / "s")]) == 0
        manifest = json.loads((tmp_path / "s" / "scene.json").read_text())
        assert manifest["n_views"] == 1
        assert manifest["views"][0]["pose"] == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_covis_matches_library(self, tmp_path):
        assert main(["synth", "--seed", "2", "--views", "4", "--size", "24x18", "--spheres", "4", "--out", str(tmp_path / "s")]) == 0
        assert main(["covis", "--scene", str(tmp_path / "s"), "--out", str(tmp_path / "c.json")]) == 0
        data = json.loads((tmp_path / "c.json").read_text())
        scene = read_scene(tmp_path / "s")
        lib = covisibility(scene).fraction
        np.testing.assert_array_equal(np.array(data["fraction"]), lib)
        assert data["rel_depth_tol"] == 0.05

    def test_sample_metadata_and_singleton(self, tmp_path, capsys):
        assert main(["synth", "--seed", "3", "--views", "4", "--size", "24x18", "--spheres", "4", "--out", str(tmp_path / "s")]) == 0
        assert main(["covis", "--scene", str(tmp_path / "s"), "--out", str(tmp_path / "c.json")]) == 0
        capsys.readouterr()
        assert main(["sample", "--covis", str(tmp_path / "c.json"), "--n", "1", "--seed", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["threshold"] == 0.25
        assert out["n_views"] == 1
        assert len(out["views"]) == 1

    def test_loss_gt_vs_gt_and_stable_reports(self, tmp_path):
        assert main(["synth", "--seed", "4", "--views", "3", "--size", "24x18", "--spheres", "4", "--out", str(tmp_path / "s")]) == 0
        for run in ("r1.json", "r2.json"):
            assert main(["loss", "--gt", str(tmp_path / "s"), "--pred", str(tmp_path / "s"), "--synthetic", "--out", str(tmp_path / run)]) == 0
        r1 = (tmp_path / "r1.json").read_bytes()
        assert r1 == (tmp_path / "r2.json").read_bytes()
        report = json.loads(r1)
        assert report["total"] < 1e-6
        assert report["weights"] == {
            "pointmap": 10.0, "rays": 1.0, "rot": 1.0, "translation": 1.0, "depth": 1.0,
            "lpm": 1.0, "scale": 1.0, "normal": 1.0, "gm": 1.0, "mask": 0.1,
        }

    def test_loss_gt_vs_gt_at_metric_scale(self, tmp_path):
        """The scale term compares the metric ground-truth norm s_gt * z_gt
        with m * z_pred: 0 for a scene at metric scale 2 against itself."""
        s = str(tmp_path / "s")
        assert main(["synth", "--seed", "5", "--views", "3", "--size", "32x24", "--metric-scale", "2", "--out", s]) == 0
        assert main(["loss", "--gt", s, "--pred", s, "--synthetic", "--out", str(tmp_path / "l.json")]) == 0
        report = json.loads((tmp_path / "l.json").read_text())
        assert report["terms"]["scale"] == 0.0
        assert report["total"] < 1e-6

    def test_eval_gt_vs_gt(self, tmp_path):
        assert main(["synth", "--seed", "5", "--views", "3", "--size", "24x18", "--spheres", "4", "--out", str(tmp_path / "s")]) == 0
        assert main(["eval", "--gt", str(tmp_path / "s"), "--pred", str(tmp_path / "s"), "--out", str(tmp_path / "e.json")]) == 0
        metrics = json.loads((tmp_path / "e.json").read_text())["metrics"]
        assert metrics["depth_tau"] == 1.0
        assert metrics["depth_rel"] == 0.0
        assert metrics["ate_rmse"] < 1e-9

    def test_forward_input_variants(self, tmp_path):
        assert main(["synth", "--seed", "6", "--views", "2", "--size", "28x28", "--spheres", "4", "--out", str(tmp_path / "s")]) == 0
        assert main(["forward", "--scene", str(tmp_path / "s"), "--seed", "1", "--inputs", "", "--out", str(tmp_path / "p0")]) == 0
        assert main(["forward", "--scene", str(tmp_path / "s"), "--seed", "1", "--inputs", "rays,pose", "--out", str(tmp_path / "p1")]) == 0
        a = read_factored(tmp_path / "p0")
        b = read_factored(tmp_path / "p1")
        assert a.n_views == b.n_views == 2
        for va, vb in zip(a.views, b.views):
            assert va.rays.directions.shape == vb.rays.directions.shape
            assert va.confidence is not None and vb.confidence is not None
        # the predicted scene must feed the loss command
        assert main(["loss", "--gt", str(tmp_path / "s"), "--pred", str(tmp_path / "p1"), "--out", str(tmp_path / "l.json")]) == 0
        assert np.isfinite(json.loads((tmp_path / "l.json").read_text())["total"])

    def test_forward_sparse_depth(self, tmp_path):
        assert main(["synth", "--seed", "7", "--views", "2", "--size", "28x28", "--spheres", "4", "--out", str(tmp_path / "s")]) == 0
        assert main(["forward", "--scene", str(tmp_path / "s"), "--seed", "2", "--inputs", "depth_sparse", "--out", str(tmp_path / "p")]) == 0

    def test_invalid_modality_error(self, tmp_path, capsys):
        assert main(["synth", "--seed", "8", "--views", "2", "--size", "28x28", "--spheres", "3", "--out", str(tmp_path / "s")]) == 0
        code = main(["forward", "--scene", str(tmp_path / "s"), "--inputs", "sonar", "--out", str(tmp_path / "p")])
        assert code != 0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: invalid-modality:")

    def test_missing_scene_error_category(self, tmp_path, capsys):
        code = main(["covis", "--scene", str(tmp_path / "nowhere"), "--out", str(tmp_path / "c.json")])
        assert code != 0
        assert capsys.readouterr().err.startswith("error: format:")

    def test_eval_two_views_emits_null_trajectory_metrics(self, tmp_path):
        assert main(["synth", "--seed", "11", "--views", "2", "--size", "24x18", "--spheres", "4", "--out", str(tmp_path / "s")]) == 0
        assert main(["eval", "--gt", str(tmp_path / "s"), "--pred", str(tmp_path / "s"), "--out", str(tmp_path / "e.json")]) == 0
        metrics = json.loads((tmp_path / "e.json").read_text())["metrics"]
        assert metrics["ate_rmse"] is None  # needs >= 3 poses
        assert metrics["depth_tau"] == 1.0

    def test_forward_config_override(self, tmp_path):
        assert main(["synth", "--seed", "12", "--views", "2", "--size", "24x16", "--spheres", "3", "--out", str(tmp_path / "s")]) == 0
        (tmp_path / "cfg.json").write_text(json.dumps({"depth": 2, "dim": 32, "heads": 2, "patch": 8}))
        assert main(["forward", "--scene", str(tmp_path / "s"), "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "p")]) == 0
        pred = read_factored(tmp_path / "p")
        assert pred.views[0].rays.directions.shape == (16, 24, 3)

    def test_shape_mismatch_diagnostics(self, tmp_path, capsys):
        assert main(["synth", "--seed", "13", "--views", "2", "--size", "24x18", "--spheres", "3", "--out", str(tmp_path / "a")]) == 0
        assert main(["synth", "--seed", "13", "--views", "2", "--size", "16x12", "--spheres", "3", "--out", str(tmp_path / "b")]) == 0
        code = main(["loss", "--gt", str(tmp_path / "a"), "--pred", str(tmp_path / "b"), "--out", str(tmp_path / "l.json")])
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error: shape-mismatch:")
        assert "view 0" in err


def _walkthrough() -> None:
    """The README walkthrough at seed 5, in-process and in the current
    directory, with every report written to a file (stdout included), plus
    the images-only forward, loss and eval without --synthetic and
    --align-points, and PLY exports of both predictions."""
    runs = [
        ["synth", "--seed", "5", "--views", "4", "--size", "56x56", "--spheres", "4", "--out", "scene/"],
        ["covis", "--scene", "scene/", "--tol", "0.05", "--jobs", "4", "--out", "covis.json"],
        ["sample", "--covis", "covis.json", "--threshold", "0.25", "--n", "3", "--seed", "2"],
    ]
    for pred, inputs in (("pred", "rays,pose"), ("pred_images", "")):
        runs += [
            ["forward", "--scene", "scene/", "--seed", "1", "--inputs", inputs, "--out", f"{pred}/"],
            ["loss", "--gt", "scene/", "--pred", f"{pred}/", "--out", f"{pred}_loss.json"],
            ["loss", "--gt", "scene/", "--pred", f"{pred}/", "--synthetic", "--out", f"{pred}_loss_synthetic.json"],
            ["eval", "--gt", "scene/", "--pred", f"{pred}/", "--out", f"{pred}_eval.json"],
            ["eval", "--gt", "scene/", "--pred", f"{pred}/", "--align-points", "--out", f"{pred}_eval_aligned.json"],
            ["export-ply", "--scene", f"{pred}/", "--out", f"{pred}.ply"],
        ]
    runs.append(["export-ply", "--scene", "scene/", "--out", "scene.ply"])
    for k, argv in enumerate(runs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        Path(f"stdout_{k:02d}_{argv[0]}.txt").write_text(out.getvalue())


class TestParserReuse:
    """main parses every call with one parser, built on its first call. A parse
    leaves nothing behind in it: each call gives what a fresh parser gives."""

    # per sequence, (exit code, or the --help SystemExit, and arguments) of each call
    SEQUENCES = {
        "two subcommands": [
            (0, ["covis", "--scene", "{d}/s", "--jobs", "1", "--tol", "0.05"]),
            (0, ["sample", "--covis", "{d}/c.json", "--n", "2", "--seed", "3"]),
            (0, ["covis", "--scene", "{d}/s"]),
            (0, ["sample", "--covis", "{d}/c.json", "--n", "2"]),
        ],
        "usage error then valid": [
            (1, ["sample", "--covis", "{d}/c.json", "--n", "two"]),
            (0, ["sample", "--covis", "{d}/c.json", "--n", "2"]),
            (1, ["bogus"]),
            (0, ["covis", "--scene", "{d}/s"]),
        ],
        "help then valid": [
            ("exit 0", ["--help"]),
            (0, ["covis", "--scene", "{d}/s"]),
            ("exit 0", ["sample", "--help"]),
            (0, ["sample", "--covis", "{d}/c.json", "--n", "2"]),
        ],
    }

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("parser")
        assert main(["synth", "--seed", "4", "--views", "3", "--size", "28x28", "--out", str(d / "s")]) == 0
        assert main(["covis", "--scene", str(d / "s"), "--out", str(d / "c.json")]) == 0
        return d

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = f"exit {exc.code}"
        return code, out.getvalue(), err.getvalue()

    def test_parser_is_built_once(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize("name", list(SEQUENCES))
    def test_calls_match_fresh_parsers(self, root, monkeypatch, name):
        runs = [[a.format(d=root) for a in argv] for _, argv in self.SEQUENCES[name]]
        reused = [self._run(argv) for argv in runs]
        assert [r[0] for r in reused] == [code for code, _ in self.SEQUENCES[name]]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert reused == [self._run(argv) for argv in runs]

    def test_options_do_not_carry_over(self):
        for argv in (
            ["covis", "--scene", "a", "--jobs", "3", "--out", "o"],
            ["covis", "--scene", "a"],
            ["forward", "--scene", "a", "--inputs", "rays", "--out", "p"],
            ["forward", "--scene", "a", "--out", "p"],
        ):
            assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


class TestJsonFiles:
    """The JSON files mapt reads and writes, through mapt.io's one reader and one writer."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.float64(np.inf)])
    def test_non_finite_value_is_not_written(self, value):
        # JSON has no NaN or Infinity (RFC 8259)
        with pytest.raises(NumericOverflowError, match="not finite"):
            _json_text({"metrics": {"a": 1.0, "b": [value]}})

    def test_text(self):
        assert _json_text({"a": [1.0, None], "b": 2}) == '{\n  "a": [\n    1.0,\n    null\n  ],\n  "b": 2\n}\n'

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("not json at all", FormatError, "not valid JSON"),
            ('{"n_views": 2}', FormatError, "covisibility file lacks 'fraction'"),
            ('{"fraction": [[1.0, "a"], [0.5, 1.0]]}', FormatError, "'fraction' is not a numeric matrix"),
            ('{"fraction": [[1.0, 0.5], [0.5]]}', FormatError, "'fraction' is not a numeric matrix"),
            ('{"fraction": [[1.0, null], [0.5, 1.0]]}', InvalidValueError, "fractions must lie in [0, 1]"),
            ('{"fraction": [[1.0, 0.5]]}', ShapeError, "covisibility matrix must be square"),
        ],
    )
    def test_read_covis(self, tmp_path, capsys, text, error, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(error, match=re.escape(message)) as exc:
            read_covis(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert main(["sample", "--covis", str(path), "--n", "2"]) == 1
        assert capsys.readouterr().err == f"error: {exc.value.category}: {exc.value}\n"

    def test_read_covis_of_covis_output(self, tmp_path):
        _, sample = gen_scene(n_views=3, width=16, height=12, n_spheres=3, seed=38)
        write_scene(tmp_path / "s", sample)
        assert main(["covis", "--scene", str(tmp_path / "s"), "--out", str(tmp_path / "c.json")]) == 0
        np.testing.assert_array_equal(read_covis(tmp_path / "c.json").fraction, covisibility(sample).fraction)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ('{"bogus": 1}', InvalidValueError, "unknown model config field(s) 'bogus'; valid fields: depth, dim, heads"),
            ("[4, 64]", InvalidValueError, "model config must be a JSON object; valid fields: depth, dim, heads"),
            ("{depth: 2}", FormatError, "not valid JSON"),
            (b"\xff\xfe", FormatError, "not valid JSON"),
            ('{"dim": "64"}', InvalidValueError, "model config dim must be of type int"),
        ],
    )
    def test_read_model_config(self, tmp_path, capsys, text, error, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(error, match=re.escape(message)) as exc:
            read_model_config(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert main(["synth", "--views", "2", "--size", "28x28", "--out", str(tmp_path / "s")]) == 0
        assert main(["forward", "--scene", str(tmp_path / "s"), "--config", str(path), "--out", str(tmp_path / "p")]) == 1
        assert capsys.readouterr().err == f"error: {exc.value.category}: {exc.value}\n"

    def test_read_model_config_overrides(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"depth": 2, "dim": 32}))
        config = read_model_config(tmp_path / "cfg.json")
        assert (config.depth, config.dim, config.heads) == (2, 32, 4)


class TestCliReruns:
    def test_walkthrough_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        files = []
        for run in (tmp_path / "a", tmp_path / "b"):
            run.mkdir()
            monkeypatch.chdir(run)
            _walkthrough()
            files.append({str(p.relative_to(run)): p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()})
        assert {"scene/scene.json", "covis.json", "pred_images/view_003_depth.mapt", "scene.ply"} <= files[0].keys()
        assert json.loads(files[0]["stdout_02_sample.txt"])["n_views"] == 3
        assert files[0].keys() == files[1].keys()
        for name in files[0]:
            assert files[0][name] == files[1][name], name


_SCIPY_PROBE = """
import json, sys
from mapt.cli import main
from mapt.io import read_scene, write_factored

runs = [
    ["synth", "--seed", "5", "--views", "3", "--size", "28x28", "--out", "scene/"],
    ["covis", "--scene", "scene/", "--out", "covis.json"],
    ["sample", "--covis", "covis.json", "--threshold", "0.0", "--n", "2"],
    ["loss", "--gt", "scene/", "--pred", "pred/", "--synthetic"],
    ["eval", "--gt", "scene/", "--pred", "pred/", "--align-points"],
    ["export-ply", "--scene", "pred/", "--out", "pred.ply"],
    ["forward", "--scene", "scene/", "--inputs", "rays,pose", "--out", "net/"],
]
for argv in runs:
    if argv[0] == "loss":
        write_factored("pred", read_scene("scene").as_factored_scene())
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")), file=sys.stderr)
"""


def test_no_command_loads_scipy(tmp_path):
    # a fresh interpreter: this test process has long imported scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == []


class TestCliErrorContract:
    """Malformed inputs end in exit code 1 and one `error: <category>: <message>` line."""

    @staticmethod
    def _single_error(capsys, code, category):
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(rf"error: {category}: \S.*", err[0])
        return err[0]

    @pytest.fixture
    def scene_dir(self, tmp_path):
        assert main(["synth", "--seed", "14", "--views", "2", "--size", "28x28", "--spheres", "3", "--out", str(tmp_path / "s")]) == 0
        return tmp_path / "s"

    @pytest.mark.parametrize("text", ["not json at all", '{"n_views": 2}'])
    def test_sample_bad_covis_file(self, tmp_path, capsys, text):
        (tmp_path / "bad.json").write_text(text)
        code = main(["sample", "--covis", str(tmp_path / "bad.json"), "--n", "2"])
        self._single_error(capsys, code, "format")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"version": 7, "n_views": 5, "fraction": [[1.0]]}, "unsupported covisibility file version 7"),
            ({"version": 1, "n_views": 5, "fraction": [[1.0]]}, "'n_views' is 5, but 'fraction' is 1x1"),
            ({"n_views": "1", "fraction": [[1.0]]}, "'n_views' is '1', but 'fraction' is 1x1"),
            # JSON true and 1.0 are not the integer 1
            ({"version": True, "n_views": 1, "fraction": [[1.0]]}, "unsupported covisibility file version True"),
            ({"version": 1.0, "n_views": 1, "fraction": [[1.0]]}, "unsupported covisibility file version 1.0"),
            ({"version": "1", "n_views": 1, "fraction": [[1.0]]}, "unsupported covisibility file version '1'"),
            ({"version": 1, "n_views": True, "fraction": [[1.0]]}, "'n_views' is True, but 'fraction' is 1x1"),
            ({"version": 1, "n_views": 1.0, "fraction": [[1.0]]}, "'n_views' is 1.0, but 'fraction' is 1x1"),
        ],
    )
    def test_sample_covis_header_disagrees(self, tmp_path, capsys, doc, message):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc))
        line = self._single_error(capsys, main(["sample", "--covis", str(path), "--n", "1"]), "format")
        assert line == f"error: format: {path}: {message}"

    def test_forward_unknown_config_key(self, scene_dir, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"bogus": 1}))
        code = main(["forward", "--scene", str(scene_dir), "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "p")])
        line = self._single_error(capsys, code, "invalid-value")
        assert "'bogus'" in line and "mlp_ratio" in line

    def test_forward_config_not_object(self, scene_dir, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text("[4, 64]")
        code = main(["forward", "--scene", str(scene_dir), "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "p")])
        line = self._single_error(capsys, code, "invalid-value")
        assert "depth" in line and "patch" in line

    def test_forward_config_not_json(self, scene_dir, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text("{depth: 2}")
        code = main(["forward", "--scene", str(scene_dir), "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "p")])
        self._single_error(capsys, code, "format")

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"dim": "64"}, "dim must be of type int"),
            ({"dim": True}, "dim must be of type int"),
            ({"scale_token_in_frame": False}, "scale_token_in_frame'; valid fields: depth, dim, heads, mlp_ratio, patch"),
            ({"heads": 0}, "heads must be >= 1"),
            ({"dim": 0}, "dim must be >= 1"),
            ({"mlp_ratio": -1.0}, "mlp_ratio must be finite"),
            ({"mlp_ratio": float("nan")}, "mlp_ratio must be finite"),
            ({"mlp_ratio": 0.001}, "mlp_ratio must be finite"),
            ({"mlp_ratio": 1e308}, "mlp_ratio must be finite"),
        ],
    )
    def test_forward_config_value_types(self, scene_dir, tmp_path, capsys, config, message):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        code = main(["forward", "--scene", str(scene_dir), "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "p")])
        assert message in self._single_error(capsys, code, "invalid-value")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["views"][1].update(intrinsics=[50.0, 50.0]), "view 1 'intrinsics' must be 4 numbers"),
            (lambda m: m["views"][1]["pose"].__setitem__(4, "x"), "view 1 'pose' must be 7 numbers"),
            (lambda m: m["views"][0].update(files=None), "view 0 'files' must map"),
            (lambda m: m.update(metric_scale="a"), "'metric_scale' must be a number"),
            (lambda m: m.update(views=None), "'views' must be a list"),
        ],
    )
    def test_covis_manifest_value_types(self, scene_dir, capsys, edit, message):
        manifest = json.loads((scene_dir / "scene.json").read_text())
        edit(manifest)
        (scene_dir / "scene.json").write_text(json.dumps(manifest))
        code = main(["covis", "--scene", str(scene_dir)])
        assert message in self._single_error(capsys, code, "format")

    @pytest.mark.parametrize("command", ["covis", "export-ply"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["views"][1]["pose"].__setitem__(4, 10**400), "view 1 'pose' must be 7 numbers within float32 range"),
            (lambda m: m.update(metric_scale=10**400), "'metric_scale' must be a number within float32 range"),
            (lambda m: m["views"][1]["intrinsics"].__setitem__(0, -(10**400)), "view 1 'intrinsics' must be 4 numbers within"),
        ],
    )
    def test_manifest_integer_beyond_float64(self, scene_dir, tmp_path, capsys, command, edit, message):
        manifest = json.loads((scene_dir / "scene.json").read_text())
        edit(manifest)
        (scene_dir / "scene.json").write_text(json.dumps(manifest))
        argv = {"covis": ["covis"], "export-ply": ["export-ply", "--out", str(tmp_path / "x.ply")]}[command]
        assert message in self._single_error(capsys, main([*argv, "--scene", str(scene_dir)]), "format")

    @pytest.mark.parametrize(
        "edit, category",
        [
            (lambda m: m["views"][1]["pose"].__setitem__(4, float("nan")), "invalid-value"),
            (lambda m: m.update(metric_scale=float("inf")), "invalid-value"),
            (lambda m: m["views"][1]["intrinsics"].__setitem__(0, float("-inf")), "invalid-intrinsics"),
        ],
    )
    def test_manifest_nan_and_infinity_literals(self, scene_dir, capsys, edit, category):
        # the manifest check lets these through; the constructors reject them
        manifest = json.loads((scene_dir / "scene.json").read_text())
        edit(manifest)
        (scene_dir / "scene.json").write_text(json.dumps(manifest))
        self._single_error(capsys, main(["covis", "--scene", str(scene_dir)]), category)

    @pytest.mark.parametrize("value", [1e308, 3e38])
    @pytest.mark.parametrize("command", ["eval", "loss", "loss-synthetic", "export-ply"])
    def test_huge_finite_pose_translation(self, tmp_path, capsys, command, value):
        # 3 views, so that eval reports every metric; past float32 range the
        # manifest is a format error, inside it every command runs cleanly
        scene = tmp_path / "s"
        assert main(["synth", "--seed", "14", "--views", "3", "--size", "28x28", "--spheres", "3", "--out", str(scene)]) == 0
        manifest = json.loads((scene / "scene.json").read_text())
        manifest["views"][1]["pose"][4] = value
        (scene / "scene.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        argv = {
            "eval": ["eval", "--gt", str(scene), "--pred", str(scene)],
            "loss": ["loss", "--gt", str(scene), "--pred", str(scene)],
            "loss-synthetic": ["loss", "--gt", str(scene), "--pred", str(scene), "--synthetic"],
            "export-ply": ["export-ply", "--scene", str(scene), "--out", str(tmp_path / "x.ply")],
        }[command]
        code = main(argv)
        if value > float(np.finfo(np.float32).max):
            assert "'pose' must be 7 numbers within float32 range" in self._single_error(capsys, code, "format")
        elif code != 0:
            self._single_error(capsys, code, r"[a-z-]+")
        else:
            out, err = capsys.readouterr()
            assert err == "" and "null" not in out
            if command == "export-ply":
                assert np.isfinite(parse_ply(tmp_path / "x.ply")[0]).all()

    def test_export_ply_points_beyond_float32(self, tmp_path, capsys):
        scene = tmp_path / "s"
        assert main(["synth", "--seed", "14", "--views", "2", "--size", "28x28", "--spheres", "3", "--out", str(scene)]) == 0
        manifest = json.loads((scene / "scene.json").read_text())
        manifest["views"][1]["pose"][4] = 3e38
        manifest["metric_scale"] = 10.0  # the scaled points pass float32's largest value
        (scene / "scene.json").write_text(json.dumps(manifest))
        code = main(["export-ply", "--scene", str(scene), "--out", str(tmp_path / "x.ply")])
        assert "within float32 range" in self._single_error(capsys, code, "numeric-overflow")
        assert not (tmp_path / "x.ply").exists()

    def test_synth_metric_scale_beyond_float32(self, tmp_path, capsys):
        # the reader would reject the manifest, so the writer refuses it
        code = main(["synth", "--views", "2", "--size", "28x28", "--metric-scale", "1e39", "--out", str(tmp_path / "s")])
        assert "within float32 range" in self._single_error(capsys, code, "numeric-overflow")

    def test_eval_manifest_view_missing_pose(self, scene_dir, tmp_path, capsys):
        manifest = json.loads((scene_dir / "scene.json").read_text())
        del manifest["views"][0]["pose"]
        (scene_dir / "scene.json").write_text(json.dumps(manifest))
        code = main(["eval", "--gt", str(scene_dir), "--pred", str(scene_dir)])
        line = self._single_error(capsys, code, "format")
        assert "'pose'" in line

    @pytest.mark.parametrize("command", ["covis", "forward"])
    def test_tensor_resolution_differs_from_manifest(self, scene_dir, tmp_path, capsys, command):
        big = tmp_path / "big"
        assert main(["synth", "--seed", "14", "--views", "2", "--size", "56x56", "--spheres", "3", "--out", str(big)]) == 0
        for key in ("depth", "validity"):
            shutil.copy(scene_dir / f"view_001_{key}.mapt", big / f"view_001_{key}.mapt")
        argv = {
            "covis": ["covis", "--scene", str(big)],
            "forward": ["forward", "--scene", str(big), "--inputs", "rays,pose", "--out", str(tmp_path / "p")],
        }[command]
        line = self._single_error(capsys, main(argv), "format")
        assert "view 1 'depth' tensor is (28, 28), manifest gives (56, 56)" in line

    def test_forward_config_dim_too_large_to_allocate(self, scene_dir, tmp_path, capsys):
        # the first weight matrix alone needs petabytes, so numpy refuses at once
        (tmp_path / "cfg.json").write_text(json.dumps({"dim": 1000000000000}))
        code = main(["forward", "--scene", str(scene_dir), "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "p")])
        assert "Unable to allocate" in self._single_error(capsys, code, "out-of-memory")

    @pytest.mark.parametrize("config", [{"patch": 10**30}, {"mlp_ratio": 1e300}, {"dim": 2**70, "heads": 1}])
    def test_forward_config_too_large_for_numpy(self, scene_dir, tmp_path, capsys, config):
        # a weight shape numpy cannot describe is rejected before that weight is drawn
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        code = main(["forward", "--scene", str(scene_dir), "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "p")])
        assert "too large for a numpy array" in self._single_error(capsys, code, "invalid-value")
        assert not (tmp_path / "p").exists()

    def test_covis_jobs_below_one(self, scene_dir, capsys):
        code = main(["covis", "--scene", str(scene_dir), "--jobs", "0"])
        assert "jobs must be >= 1" in self._single_error(capsys, code, "invalid-value")

    def test_covis_tensor_dims_overflow(self, scene_dir, capsys):
        # dims that multiply to 2 ** 64 over an empty payload
        (scene_dir / "view_001_depth.mapt").write_bytes(b"MAPT" + struct.pack("<BBB4I", 1, 1, 4, *[65536] * 4))
        code = main(["covis", "--scene", str(scene_dir)])
        assert "payload size mismatch" in self._single_error(capsys, code, "format")

    def test_covis_truncated_tensor(self, scene_dir, capsys):
        (scene_dir / "view_000_rays.mapt").write_bytes(b"MAPT\x01\x01\x03\x1c\x00")
        code = main(["covis", "--scene", str(scene_dir)])
        self._single_error(capsys, code, "format")

    @pytest.mark.parametrize("tensor", ["confidence", "mask"])
    def test_loss_non_finite_prediction_inside_mask(self, scene_dir, tmp_path, capsys, tensor):
        write_factored(tmp_path / "p", read_scene(scene_dir).as_factored_scene())
        path = tmp_path / "p" / f"view_001_{tensor}.mapt"
        arr = read_tensor(path)
        arr[tuple(np.argwhere(read_tensor(scene_dir / "view_001_mask.mapt"))[0])] = np.nan
        write_tensor(path, arr)
        code = main(["loss", "--gt", str(scene_dir), "--pred", str(tmp_path / "p")])
        assert tensor in self._single_error(capsys, code, "invalid-value")

    @pytest.mark.parametrize("command", ["loss", "eval"])
    @pytest.mark.parametrize("value", [1.5, -0.5])
    def test_float_mask_outside_unit_interval(self, scene_dir, tmp_path, capsys, command, value):
        # a mask tensor read from disk is checked, not clipped into [0, 1]
        write_factored(tmp_path / "p", read_scene(scene_dir).as_factored_scene())
        path = tmp_path / "p" / "view_001_mask.mapt"
        arr = read_tensor(path)
        arr[0, 0] = value
        write_tensor(path, arr)
        code = main([command, "--gt", str(scene_dir), "--pred", str(tmp_path / "p")])
        assert "mask probabilities must lie in [0, 1]" in self._single_error(capsys, code, "invalid-value")

    @pytest.mark.parametrize(
        "tree, edit, category, message",
        [
            ("p", lambda d: _edit_tensor(d / "view_001_mask.mapt", lambda a: a * 1.5), "invalid-value",
             "view 1: mask probabilities must lie in [0, 1]"),
            ("p", lambda d: _edit_tensor(d / "view_001_confidence.mapt", lambda a: a * 0.5), "invalid-value",
             "view 1: confidence values must be finite and >= 1"),
            ("p", lambda d: _edit_tensor(d / "view_001_rays.mapt", lambda a: a * 2.0), "invalid-value",
             "view 1: view_001_rays.mapt: ray directions must be finite and unit length within 1e-6"),
            ("s", lambda d: _edit_tensor(d / "view_001_depth.mapt", lambda a: a * np.nan), "invalid-value",
             "view 1: valid depths must be finite and > 0"),
            ("s", lambda d: _edit_manifest(d, lambda m: m["views"][1]["intrinsics"].__setitem__(0, -1.0)),
             "invalid-intrinsics", "view 1: focal lengths must be > 0"),
            ("s", lambda d: _edit_manifest(d, lambda m: m["views"][1]["pose"].__setitem__(0, 2.0)), "invalid-value",
             "view 1: pose quaternion must be unit length within 1e-6"),
            ("p", lambda d: _edit_manifest(d, lambda m: m.update(metric_scale=-1.0)), "invalid-value",
             "metric scale must be finite and > 0"),
        ],
    )
    @pytest.mark.parametrize("command", ["loss", "eval"])
    def test_value_fault_read_from_disk_names_its_place(self, scene_dir, tmp_path, capsys, tree, edit, category, message, command):
        # the constructor's category, with the directory, the view and, for a
        # constructor of one tensor, the file in front of its message
        write_factored(tmp_path / "p", read_scene(scene_dir).as_factored_scene())
        d = {"s": scene_dir, "p": tmp_path / "p"}[tree]
        edit(d)
        code = main([command, "--gt", str(scene_dir), "--pred", str(tmp_path / "p")])
        assert self._single_error(capsys, code, category) == f"error: {category}: {d}: {message}"

    @pytest.mark.parametrize("command, name, field", [("loss", "total_loss", "total"), ("eval", "evaluate_scene", "depth_rel")])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_report_value(self, scene_dir, tmp_path, capsys, monkeypatch, command, name, field, value):
        # JSON has no NaN or Infinity: the report is an error, and no file is written
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, **kw: dataclasses.replace(fn(*args, **kw), **{field: value}))
        out = tmp_path / "report.json"
        code = main([command, "--gt", str(scene_dir), "--pred", str(scene_dir), "--out", str(out)])
        self._single_error(capsys, code, "numeric-overflow")
        assert not out.exists()
        assert main([command, "--gt", str(scene_dir), "--pred", str(scene_dir)]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("size", [(0, 0), (0, 28), (28.0, 28), (True, 28)])
    def test_covis_view_size_not_a_positive_integer(self, scene_dir, capsys, size):
        manifest = json.loads((scene_dir / "scene.json").read_text())
        manifest["views"][1].update(width=size[0], height=size[1])
        (scene_dir / "scene.json").write_text(json.dumps(manifest))
        if size == (0, 0):  # a consistent empty view: tensors of matching shape
            write_tensor(scene_dir / "view_001_rays.mapt", np.zeros((0, 0, 3), np.float32))
            for key in ("depth", "validity", "mask"):
                write_tensor(scene_dir / f"view_001_{key}.mapt", np.zeros((0, 0), np.uint8 if key != "depth" else np.float32))
        code = main(["covis", "--scene", str(scene_dir)])
        assert "view 1 'width' and 'height' must be positive integers" in self._single_error(capsys, code, "format")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_covis_bad_tolerance(self, scene_dir, tmp_path, capsys, tol):
        code = main(["covis", "--scene", str(scene_dir), "--tol", tol, "--out", str(tmp_path / "c.json")])
        assert "rel_depth_tol must be finite and >= 0" in self._single_error(capsys, code, "invalid-value")
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_sample_non_finite_threshold(self, scene_dir, tmp_path, capsys, threshold):
        assert main(["covis", "--scene", str(scene_dir), "--out", str(tmp_path / "c.json")]) == 0
        code = main(["sample", "--covis", str(tmp_path / "c.json"), f"--threshold={threshold}", "--n", "2"])
        assert "threshold must be finite" in self._single_error(capsys, code, "invalid-value")

    def test_sample_null_fraction(self, tmp_path, capsys):
        (tmp_path / "c.json").write_text(json.dumps({"fraction": [[1.0, None], [0.5, 1.0]]}))
        code = main(["sample", "--covis", str(tmp_path / "c.json"), "--n", "2"])
        assert "fractions must lie in [0, 1]" in self._single_error(capsys, code, "invalid-value")

    @pytest.mark.parametrize("fraction", [[[1.0, "a"], [0.5, 1.0]], [[1.0, 0.5], [0.5]], {"a": 1.0}])
    def test_sample_fraction_not_a_numeric_matrix(self, tmp_path, capsys, fraction):
        (tmp_path / "c.json").write_text(json.dumps({"fraction": fraction}))
        code = main(["sample", "--covis", str(tmp_path / "c.json"), "--n", "2"])
        assert "'fraction' is not a numeric matrix" in self._single_error(capsys, code, "format")

    @pytest.mark.parametrize("command", ["synth", "sample", "forward"])
    def test_negative_seed(self, scene_dir, tmp_path, capsys, command):
        (tmp_path / "c.json").write_text(json.dumps({"fraction": [[1.0, 1.0], [1.0, 1.0]]}))
        argv = {
            "synth": ["synth", "--views", "2", "--size", "28x28", "--out", str(tmp_path / "s")],
            "sample": ["sample", "--covis", str(tmp_path / "c.json"), "--n", "2"],
            "forward": ["forward", "--scene", str(scene_dir), "--out", str(tmp_path / "p")],
        }[command]
        code = main([*argv, "--seed", "-1"])
        assert "seed must be a non-negative integer" in self._single_error(capsys, code, "invalid-value")

    @pytest.mark.parametrize("spheres", ["0", "-1"])
    def test_synth_fewer_than_one_sphere(self, tmp_path, capsys, spheres):
        code = main(["synth", "--views", "2", "--size", "28x28", "--spheres", spheres, "--out", str(tmp_path / "s")])
        assert "need at least one sphere" in self._single_error(capsys, code, "invalid-value")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--views", "abc", "--out", "x"],
            ["bogus"],
            [],
            ["synth"],
            ["covis", "--scene", "s", "--extra"],
            ["synth", "--views=--", "--out", "x"],  # argparse before 3.12 parses the value as []
        ],
    )
    def test_argument_errors(self, capsys, argv):
        """Usage errors are one invalid-value line, not argparse's usage block and exit 2."""
        self._single_error(capsys, main(argv), "invalid-value")

    @pytest.mark.parametrize("argv", [["--help"], ["synth", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: mapt")


KNOWN_CATEGORIES = {c.category for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.MaptError)}
KNOWN_CATEGORIES |= {"io", "out-of-memory"}  # cli.main's categories for OSError and MemoryError


def _run_cli(argv) -> tuple[int, str]:
    """Exit code and stdout of cli.main; a failed run must print exactly one
    `error: <known category>:` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code != 0:
        assert code == 1 and len(lines) == 1, lines
        m = re.fullmatch(r"error: ([a-z-]+): \S.*", lines[0])
        assert m and m.group(1) in KNOWN_CATEGORIES, lines
    return code, out.getvalue()


def _rerun(argv, out: Path):
    """Run argv twice through _run_cli: None once it fails, else what it
    wrote to ``out`` (a file's bytes or a directory's files), which must be
    the same, with the same stdout, on the rerun."""
    runs = []
    for _ in range(2):
        code, stdout = _run_cli(argv)
        if code != 0:
            return None
        runs.append((stdout, _dir_bytes(out) if out.is_dir() else out.read_bytes()))
    assert runs[0] == runs[1]
    return runs[0][1]


def _edit_tensor(path: Path, change) -> None:
    write_tensor(path, change(read_tensor(path)))


def _edit_manifest(path: Path, change) -> None:
    manifest = json.loads((path / "scene.json").read_text())
    change(manifest)
    (path / "scene.json").write_text(json.dumps(manifest))


class TestCliFuzz:
    """One NaN or +-inf written into one float32 tensor payload, and drawn
    --tol/--threshold values: every run either exits 0 without a null in a
    loss, eval or covisibility report, or prints exactly one `error: <known
    category>:` line."""

    FLAGS = ["nan", "inf", "-1", "0", "0.05"]

    @pytest.fixture(scope="class")
    def dirs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        assert main(["synth", "--seed", "3", "--views", "3", "--size", "28x28", "--spheres", "3", "--out", str(root / "gt")]) == 0
        assert main(["forward", "--scene", str(root / "gt"), "--seed", "1", "--out", str(root / "pred")]) == 0
        return root

    def _run(self, argv):
        return _run_cli(argv)[0]

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["loss", "loss-synthetic", "eval", "eval-align", "covis", "export-ply"]),
        target=st.sampled_from(["gt/view_000_rays", "gt/view_001_depth", "pred/view_000_rays", "pred/view_001_depth",
                                "pred/view_000_mask", "pred/view_001_confidence"]),
        index=st.integers(0, 28 * 28 * 3 - 1),
        value=st.sampled_from([np.nan, np.inf, -np.inf]),
        tol=st.sampled_from(FLAGS),
        threshold=st.sampled_from(FLAGS),
    )
    def test_cli_exits_cleanly(self, dirs, command, target, index, value, tol, threshold):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name in ("gt", "pred"):
                shutil.copytree(dirs / name, tmp / name)
            path = tmp / f"{target}.mapt"
            arr = read_tensor(path)
            arr.flat[index % arr.size] = value
            write_tensor(path, arr)
            gt, pred, report = str(tmp / "gt"), str(tmp / "pred"), tmp / "report.json"
            if command.startswith("loss"):
                argv = ["loss", "--gt", gt, "--pred", pred, "--out", str(report)] + ["--synthetic"] * command.endswith("synthetic")
                if self._run(argv) == 0:
                    assert "null" not in report.read_text()
            elif command.startswith("eval"):
                if self._run(["eval", "--gt", gt, "--pred", pred, "--out", str(report)] + ["--align-points"] * command.endswith("align")) == 0:
                    assert "null" not in report.read_text()
            elif command == "covis":
                if self._run(["covis", "--scene", gt, f"--tol={tol}", "--out", str(report)]) == 0:
                    assert "null" not in report.read_text()
                    self._run(["sample", "--covis", str(report), f"--threshold={threshold}", "--n", "2"])
            else:
                self._run(["export-ply", "--scene", gt if target.startswith("gt") else pred, "--out", str(tmp / "x.ply")])


class TestManifestFuzz:
    """One value of a 3-view scene.json, or of the covisibility JSON that
    `mapt sample` reads, replaced by a wrong JSON type, a bool, a 400-digit
    integer or an Infinity or NaN literal; or a key removed or added, or
    n_views made to disagree. Every run either exits 0 and writes the same
    bytes on a rerun, without a null in a JSON report, or prints exactly one
    `error: <known category>:` line."""

    VALUES = ["x", None, [], {}, True, False, 10**400, -(10**400), float("inf"), float("-inf"), float("nan")]

    @pytest.fixture(scope="class")
    def dirs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("manifest-fuzz")
        gt = str(root / "gt")
        assert main(["synth", "--seed", "4", "--views", "3", "--size", "28x28", "--spheres", "3", "--out", gt]) == 0
        assert main(["forward", "--scene", gt, "--seed", "1", "--out", str(root / "pred")]) == 0
        assert main(["covis", "--scene", gt, "--out", str(root / "covis.json")]) == 0
        return root

    @staticmethod
    def _paths(doc, prefix=()):
        """The key path of every value below the root of a JSON document."""
        items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
        for key, value in items:
            yield (*prefix, key)
            yield from TestManifestFuzz._paths(value, (*prefix, key))

    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(["covis", "loss", "eval", "export-ply", "forward", "sample"]),
        index=st.integers(0, 10**6),
        change=st.one_of(
            st.tuples(st.just("set"), st.sampled_from(VALUES)),
            st.tuples(st.sampled_from(["drop", "extra"]), st.none()),
            st.tuples(st.just("n_views"), st.sampled_from([-1, 1])),
        ),
    )
    def test_cli_exits_cleanly(self, dirs, command, index, change):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shutil.copytree(dirs / "gt", tmp / "gt")
            shutil.copy(dirs / "covis.json", tmp / "covis.json")
            doc_path = tmp / ("covis.json" if command == "sample" else "gt/scene.json")
            doc = json.loads(doc_path.read_text())
            kind, value = change
            if kind == "n_views":
                doc["n_views"] += value
            else:
                paths = list(self._paths(doc))
                *parent, key = paths[index % len(paths)]
                parent = functools.reduce(operator.getitem, parent, doc)
                if kind == "set":
                    parent[key] = copy.deepcopy(value)
                elif kind == "drop":
                    del parent[key]
                elif isinstance(parent, dict):
                    parent["extra"] = copy.deepcopy(parent[key])
                else:  # an extra list entry
                    parent.insert(key, copy.deepcopy(parent[key]))
            doc_path.write_text(json.dumps(doc))

            gt, out = str(tmp / "gt"), tmp / "out"
            argv = {
                "covis": ["covis", "--scene", gt],
                "loss": ["loss", "--gt", gt, "--pred", str(dirs / "pred"), "--synthetic"],
                "eval": ["eval", "--gt", gt, "--pred", str(dirs / "pred"), "--align-points"],
                "export-ply": ["export-ply", "--scene", gt],
                "forward": ["forward", "--scene", gt, "--inputs", "rays,pose,depth"],
                "sample": ["sample", "--covis", str(doc_path), "--n", "2"],
            }[command] + ["--out", str(out)]
            written = _rerun(argv, out)
            if written is not None and command in ("covis", "loss", "eval", "sample"):  # JSON reports
                assert b"null" not in written


class TestTensorHeaderFuzz:
    """One header byte of one tensor file in a 3-view scene directory (magic,
    version, dtype code, ndim or a dimension) replaced by a drawn value, or
    its dimensions rewritten as another shape of the same element count.
    Every run either exits 0 and writes the same bytes on a rerun, without a
    null in a JSON report, or prints exactly one `error: <known category>:`
    line."""

    @pytest.fixture(scope="class")
    def dirs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("header-fuzz")
        assert main(["synth", "--seed", "6", "--views", "3", "--size", "28x28", "--spheres", "3", "--out", str(root / "gt")]) == 0
        assert main(["forward", "--scene", str(root / "gt"), "--seed", "1", "--out", str(root / "pred")]) == 0
        return root

    @staticmethod
    def _reshapes(dims: tuple) -> list[tuple]:
        """Other shapes of the same element count."""
        count = int(np.prod(dims))
        return [(count,), dims[::-1], (*dims, 1), (1, *dims), (dims[0] * dims[1], *dims[2:]), (dims[0], count // dims[0])]

    @settings(max_examples=100, deadline=None)
    @given(
        command=st.sampled_from(["covis", "loss", "eval", "export-ply", "forward"]),
        tree=st.sampled_from(["gt", "pred"]),
        tensor=st.sampled_from(["view_000_rays", "view_001_depth", "view_002_validity", "view_001_mask"]),
        change=st.one_of(
            st.tuples(
                st.sampled_from(["magic", "version", "dtype", "ndim", "dims"]),
                st.integers(0, 10**6),
                st.one_of(st.sampled_from([0, 1, 2, 3, 64, 255]), st.integers(0, 255)),
            ),
            st.tuples(st.just("shape"), st.integers(0, 10**6), st.none()),
        ),
    )
    def test_cli_exits_cleanly(self, dirs, command, tree, tensor, change):
        tree = "gt" if command in ("covis", "forward") else tree  # the commands that read only a scene
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name in ("gt", "pred"):
                shutil.copytree(dirs / name, tmp / name)
            path = tmp / tree / f"{tensor}.mapt"
            raw = bytearray(path.read_bytes())
            ndim = raw[6]
            field, index, value = change
            if field != "shape":  # one byte of the field: magic 0-3, version 4, dtype code 5, ndim 6, dims from 7
                raw[{"magic": index % 4, "version": 4, "dtype": 5, "ndim": 6, "dims": 7 + index % (4 * ndim)}[field]] = value
            else:
                shapes = self._reshapes(struct.unpack(f"<{ndim}I", raw[7 : 7 + 4 * ndim]))
                shape = shapes[index % len(shapes)]
                raw[: 7 + 4 * ndim] = raw[:6] + struct.pack(f"<B{len(shape)}I", len(shape), *shape)
            path.write_bytes(raw)

            gt, pred, out = str(tmp / "gt"), str(tmp / "pred"), tmp / "out"
            argv = {
                "covis": ["covis", "--scene", gt],
                "loss": ["loss", "--gt", gt, "--pred", pred, "--synthetic"],
                "eval": ["eval", "--gt", gt, "--pred", pred, "--align-points"],
                "export-ply": ["export-ply", "--scene", str(tmp / tree)],
                "forward": ["forward", "--scene", gt, "--inputs", "rays,pose,depth"],
            }[command] + ["--out", str(out)]
            written = _rerun(argv, out)
            if written is not None and command in ("covis", "loss", "eval"):  # JSON reports
                assert b"null" not in written


class TestCliArgumentFuzz:
    """One drawn --size, --views, --n, --tol or --inputs value, non-numbers
    included: every run either exits 0 or prints exactly one `error: <known
    category>:` line."""

    NUMBERS = ["-1", "0", "1", "2", "3", "+2", " 2", "1_0"]
    OTHER = ["", "abc", "1.5", "2.0", "1e1", "nan", "inf", "-inf", "0x10", "--", "\u0662"]
    SIDES = ["-1", "0", "1", "28", "2.5", "abc", ""]

    @pytest.fixture(scope="class")
    def dirs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("argument-fuzz")
        assert main(["synth", "--seed", "2", "--views", "3", "--size", "28x28", "--spheres", "3", "--out", str(root / "gt")]) == 0
        assert main(["covis", "--scene", str(root / "gt"), "--out", str(root / "covis.json")]) == 0
        return root

    @settings(max_examples=50, deadline=None)
    @given(
        flag=st.sampled_from(["--size", "--views", "--n", "--tol"]),
        value=st.one_of(
            st.sampled_from(NUMBERS + OTHER),
            st.tuples(st.sampled_from(SIDES), st.sampled_from(SIDES), st.sampled_from(["x", "X", "x28x"])).map("".join),
        ),
    )
    def test_cli_exits_cleanly(self, dirs, flag, value):
        with tempfile.TemporaryDirectory() as tmp:
            out = str(Path(tmp) / "out")
            argv = {
                "--size": ["synth", "--views", "2", "--out", out],
                "--views": ["synth", "--size", "28x28", "--out", out],
                "--n": ["sample", "--covis", str(dirs / "covis.json"), "--out", out],
                "--tol": ["covis", "--scene", str(dirs / "gt"), "--out", out],
            }[flag]
            _run_cli([*argv, f"{flag}={value}"])

    MODALITIES = ["rays", "pose", "depth", "depth_sparse", "", "RAYS", "ray", " rays", "depth-sparse", "x", "--", "\u0662"]

    @settings(max_examples=40, deadline=None)
    @given(
        tokens=st.lists(st.sampled_from(MODALITIES), max_size=4),
        sep=st.sampled_from([",", ", ", ";", " ", ",,"]),
    )
    def test_inputs_exits_cleanly(self, dirs, tokens, sep):
        """A drawn --inputs list: every run either exits 0 and writes the
        same bytes on a rerun, or prints exactly one error line."""
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "pred"
            argv = ["forward", "--scene", str(dirs / "gt"), f"--inputs={sep.join(tokens)}", "--out", str(out)]
            _rerun(argv, out)


class TestPlyExport:
    def test_export_and_independent_reparse(self, tmp_path):
        assert main(["synth", "--seed", "10", "--views", "2", "--size", "24x18", "--spheres", "4", "--out", str(tmp_path / "s")]) == 0
        assert main(["export-ply", "--scene", str(tmp_path / "s"), "--out", str(tmp_path / "s.ply")]) == 0
        pts, cols = parse_ply(tmp_path / "s.ply")

        scene = read_factored(tmp_path / "s")
        from mapt.geometry import compose_scene_points
        from mapt.synth import shade_view

        pmaps = compose_scene_points(scene)
        expect_pts, expect_cols = [], []
        for view, pm in zip(scene.views, pmaps):
            img = shade_view(view.rays, view.depth)
            m = pm.validity
            expect_pts.append(pm.points[m].astype(np.float32))
            expect_cols.append(np.round(img[m] * 255.0).astype(np.uint8))
        expect_pts = np.concatenate(expect_pts)
        expect_cols = np.concatenate(expect_cols)
        assert pts.shape[0] == sum(int(v.depth.validity.sum()) for v in scene.views)
        np.testing.assert_array_equal(pts, expect_pts)
        np.testing.assert_array_equal(cols, expect_cols)

    def test_export_zero_view_scene_writes_empty_ply(self, tmp_path):
        assert main(["synth", "--seed", "10", "--views", "2", "--size", "24x18", "--spheres", "4", "--out", str(tmp_path / "s")]) == 0
        manifest = json.loads((tmp_path / "s" / "scene.json").read_text())
        manifest.update(n_views=0, views=[])
        (tmp_path / "s" / "scene.json").write_text(json.dumps(manifest))
        assert main(["export-ply", "--scene", str(tmp_path / "s"), "--out", str(tmp_path / "s.ply")]) == 0
        pts, cols = parse_ply(tmp_path / "s.ply")
        assert pts.shape == (0, 3) and cols.shape == (0, 3)

    def test_write_ply_counts(self, tmp_path):
        pts = np.arange(9, dtype=np.float32).reshape(3, 3)
        cols = np.arange(9, dtype=np.uint8).reshape(3, 3)
        write_ply(tmp_path / "x.ply", pts, cols)
        got_pts, got_cols = parse_ply(tmp_path / "x.ply")
        np.testing.assert_array_equal(got_pts, pts)
        np.testing.assert_array_equal(got_cols, cols)

    @pytest.mark.parametrize("n", [0, 1, geometry._PIXEL_BLOCK, geometry._PIXEL_BLOCK + 1])
    def test_write_ply_bytes_match_whole_array_writer(self, tmp_path, n):
        """No points, one, one whole block of records and one point past it."""
        rng = np.random.default_rng(n)
        pts, cols = rng.normal(0.0, 10.0, (n, 3)), rng.integers(0, 256, (n, 3), dtype=np.uint8)
        write_ply(tmp_path / "x.ply", pts, cols)
        write_ply_reference(tmp_path / "ref.ply", pts, cols)
        assert (tmp_path / "x.ply").read_bytes() == (tmp_path / "ref.ply").read_bytes()

    def test_write_ply_rejects_before_opening(self, tmp_path):
        pts = np.array([[0.0, 1.0, 2.0], [np.inf, 0.0, 0.0]])
        with pytest.raises(NumericOverflowError):
            write_ply(tmp_path / "x.ply", pts, np.zeros((2, 3), np.uint8))
        with pytest.raises(errors.ShapeError):
            write_ply(tmp_path / "x.ply", pts[:1], np.zeros((2, 3), np.uint8))
        assert not (tmp_path / "x.ply").exists()

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 3.5e38, -1e39])
    def test_write_ply_rejects_a_point_in_a_later_block(self, tmp_path, bad):
        # the points are checked block by block, through the float32 cast: one
        # past float32 range in the last block still stops the write before the file opens
        pts = np.zeros((2 * geometry._PIXEL_BLOCK + 1, 3))
        pts[-1, 2] = bad
        with pytest.raises(NumericOverflowError, match="finite and within float32 range"):
            write_ply(tmp_path / "x.ply", pts, np.zeros(pts.shape, np.uint8))
        assert not (tmp_path / "x.ply").exists()

    def test_write_ply_peak_memory(self, tmp_path):
        """The tracemalloc peak of writing 1e5 float64 points, in record bytes
        (15 a point): about 0.17 with the points cast to float32 one block at
        a time, for the finite check and again for the records; 1.0 with a
        whole float32 copy and its finite mask made first, and near 3.8 when
        the record array, its bytes and the header joined to them were held."""
        n = 100_000
        rng = np.random.default_rng(0)
        pts, cols = rng.normal(0.0, 10.0, (n, 3)), rng.integers(0, 256, (n, 3), dtype=np.uint8)
        tracemalloc.start()
        try:
            write_ply(tmp_path / "x.ply", pts, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.4 * 15 * n

    def test_export_peak_memory(self, tmp_path):
        """The tracemalloc peak of export-ply on a 4-view 518x388 scene (737,511
        points, an 11.1 MB PLY): about 56 MB with its points and colors made in
        row bands, the scene it reads (about 30 MB) included; 107 MB when
        every view's composed points and shaded image were held whole."""
        args = ["synth", "--seed", "5", "--views", "4", "--size", "518x388", "--out", str(tmp_path / "s")]
        assert main(args) == 0
        tracemalloc.start()
        try:
            assert main(["export-ply", "--scene", str(tmp_path / "s"), "--out", str(tmp_path / "s.ply")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 70e6
