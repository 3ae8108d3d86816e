import numpy as np
import pytest

from dualstream import runner
from dualstream.cli import bev_from_config, world_from_config
from dualstream.configio import Config, config_to_dict
from dualstream.diffcore import use_dtype
from dualstream.heads import TrackerState
from dualstream.model import DualStreamModel
from dualstream.synthworld.dataset import Dataset, generate_and_write

# every detection clears the score threshold, so the tracker gives each one an id
CFG = Config(seed=3, scene_frames=3, image_height=32, image_width=64, bev_cells=8, latent_dim=16,
             n_layers=1, n_queries=8, topk=4, decode_hidden=16, track_score_thresh=0.0)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("runner") / "data"
    generate_and_write([11], out, world_from_config(CFG), bev_from_config(CFG),
                       config_echo=config_to_dict(CFG), ranges=CFG.detection_ranges(),
                       image_size=(CFG.image_height, CFG.image_width))
    return Dataset(out)


class TestIdentityWriteBack:
    def test_memory_slots_carry_track_id_of_source_detection(self, tiny_dataset, monkeypatch):
        steps = []
        forward = DualStreamModel.forward_frame
        track = TrackerState.step

        def captured_forward(self, *args, **kwargs):
            res = forward(self, *args, **kwargs)
            steps.append([res, None])
            return res

        def even_detections_only(self, *args, **kwargs):
            # leave odd detections unassigned so both write-back branches run
            assigned = [(i, tid) for i, tid in track(self, *args, **kwargs) if i % 2 == 0]
            steps[-1][1] = dict(assigned)
            return assigned

        monkeypatch.setattr(DualStreamModel, "forward_frame", captured_forward)
        monkeypatch.setattr(TrackerState, "step", even_detections_only)
        with use_dtype(CFG.np_dtype()):
            model = DualStreamModel(CFG)
        out = runner.run_inference(tiny_dataset, model, CFG)

        assert len(steps) == 3
        branches = set()
        for (res, tid_of_det), record in zip(steps, out.records[0].frames):
            assert record.track_ids == [tid_of_det.get(i) for i in range(len(res.detections))]
            for slot, src in enumerate(res.memory_source_indices.tolist()):
                prior = res.detections[src].prior_identity
                want = tid_of_det.get(src, -1 if prior is None else prior)
                assert res.state.memory.ids[slot] == want
                branches.add(src in tid_of_det)
        assert branches == {True, False}
        # carried ids come back as the prior identities of the next frame
        later_priors = [d.prior_identity for res, _ in steps[1:] for d in res.detections]
        assert any(p is not None for p in later_priors)
