from .scene import (
    AgentState,
    AgentTrack,
    CLASS_CAR,
    CLASS_NAMES,
    CLASS_PEDESTRIAN,
    MapSpec,
    SceneConfigError,
    SceneSpec,
    WorldConfig,
    alternating_schedule,
    build_camera_rig,
    full_schedule,
    generate_scene,
    step_agents,
)
from .render import id_brightness, render_camera
from .dataset import (
    Dataset,
    DatasetError,
    FrameSample,
    build_frame,
    ego_frame_boxes,
    generate_and_write,
    make_schedules,
    rasterize_gt_bev,
    render_views,
)
