import json
import re
from pathlib import Path

import numpy as np
import pytest

from mapt.cli import main
from mapt.errors import FormatError
from mapt.geometry import quat_to_rot
from mapt.io import read_factored, read_scene, read_tensor, write_ply, write_scene, write_tensor
from mapt.synth import AnalyticScene, gen_scene
from mapt.viewgraph import covisibility

from oracles import parse_ply


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

    def test_eval_manifest_view_missing_pose(self, scene_dir, tmp_path, capsys):
        manifest = json.loads((scene_dir / "scene.json").read_text())
        del manifest["views"][0]["pose"]
        (scene_dir / "scene.json").write_text(json.dumps(manifest))
        code = main(["eval", "--gt", str(scene_dir), "--pred", str(scene_dir)])
        line = self._single_error(capsys, code, "format")
        assert "'pose'" in line

    def test_covis_truncated_tensor(self, scene_dir, capsys):
        (scene_dir / "view_000_rays.mapt").write_bytes(b"MAPT\x01\x01\x03\x1c\x00")
        code = main(["covis", "--scene", str(scene_dir)])
        self._single_error(capsys, code, "format")


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

    def test_write_ply_counts(self, tmp_path):
        pts = np.arange(9, dtype=np.float32).reshape(3, 3)
        cols = np.arange(9, dtype=np.uint8).reshape(3, 3)
        write_ply(tmp_path / "x.ply", pts, cols)
        got_pts, got_cols = parse_ply(tmp_path / "x.ply")
        np.testing.assert_array_equal(got_pts, pts)
        np.testing.assert_array_equal(got_cols, cols)
