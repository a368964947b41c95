"""The weight-file format contract for the TINY configuration.

Tensor names and shapes, cost-report entry names and verify-fusion unit
names are pinned as literals, so renaming or reordering any of them
fails here even when every other part of the program agrees with the
change.
"""

import dataclasses

import pytest

from mvt2.model import build, count, deploy, fusable_branches, named_tensors

from helpers import TINY


# "<name> <shape>" per tensor, in file order
TRAIN_TENSORS = """
stem.0.main.kernel 1x3x3x3
stem.0.main.bias 1
stem.0.main_bn.gamma 1
stem.0.main_bn.beta 1
stem.0.main_bn.mean 1
stem.0.main_bn.var 1
stem.0.scale.kernel 1x3x1x1
stem.0.scale.bias 1
stem.0.scale_bn.gamma 1
stem.0.scale_bn.beta 1
stem.0.scale_bn.mean 1
stem.0.scale_bn.var 1
stem.1.main.kernel 2x1x3x3
stem.1.main.bias 2
stem.1.main_bn.gamma 2
stem.1.main_bn.beta 2
stem.1.main_bn.mean 2
stem.1.main_bn.var 2
stem.1.scale.kernel 2x1x1x1
stem.1.scale.bias 2
stem.1.scale_bn.gamma 2
stem.1.scale_bn.beta 2
stem.1.scale_bn.mean 2
stem.1.scale_bn.var 2
stem.2.main.kernel 4x2x3x3
stem.2.main.bias 4
stem.2.main_bn.gamma 4
stem.2.main_bn.beta 4
stem.2.main_bn.mean 4
stem.2.main_bn.var 4
stem.2.scale.kernel 4x2x1x1
stem.2.scale.bias 4
stem.2.scale_bn.gamma 4
stem.2.scale_bn.beta 4
stem.2.scale_bn.mean 4
stem.2.scale_bn.var 4
stem.3.main.kernel 8x4x3x3
stem.3.main.bias 8
stem.3.main_bn.gamma 8
stem.3.main_bn.beta 8
stem.3.main_bn.mean 8
stem.3.main_bn.var 8
stem.3.scale.kernel 8x4x1x1
stem.3.scale.bias 8
stem.3.scale_bn.gamma 8
stem.3.scale_bn.beta 8
stem.3.scale_bn.mean 8
stem.3.scale_bn.var 8
stage1.0.mixer.main.kernel 8x1x3x3
stage1.0.mixer.main.bias 8
stage1.0.mixer.main_bn.gamma 8
stage1.0.mixer.main_bn.beta 8
stage1.0.mixer.main_bn.mean 8
stage1.0.mixer.main_bn.var 8
stage1.0.mixer.scale.kernel 8x1x1x1
stage1.0.mixer.scale.bias 8
stage1.0.mixer.scale_bn.gamma 8
stage1.0.mixer.scale_bn.beta 8
stage1.0.mixer.scale_bn.mean 8
stage1.0.mixer.scale_bn.var 8
stage1.0.mixer.identity_bn.gamma 8
stage1.0.mixer.identity_bn.beta 8
stage1.0.mixer.identity_bn.mean 8
stage1.0.mixer.identity_bn.var 8
stage1.0.expand.kernel 16x8x1x1
stage1.0.expand.bias 16
stage1.0.expand_bn.gamma 16
stage1.0.expand_bn.beta 16
stage1.0.expand_bn.mean 16
stage1.0.expand_bn.var 16
stage1.0.project.kernel 8x16x1x1
stage1.0.project.bias 8
stage1.0.project_bn.gamma 8
stage1.0.project_bn.beta 8
stage1.0.project_bn.mean 8
stage1.0.project_bn.var 8
down12.main.kernel 8x8x3x3
down12.main.bias 8
down12.main_bn.gamma 8
down12.main_bn.beta 8
down12.main_bn.mean 8
down12.main_bn.var 8
down12.scale.kernel 8x8x1x1
down12.scale.bias 8
down12.scale_bn.gamma 8
down12.scale_bn.beta 8
down12.scale_bn.mean 8
down12.scale_bn.var 8
stage2.0.mixer.main.kernel 8x1x3x3
stage2.0.mixer.main.bias 8
stage2.0.mixer.main_bn.gamma 8
stage2.0.mixer.main_bn.beta 8
stage2.0.mixer.main_bn.mean 8
stage2.0.mixer.main_bn.var 8
stage2.0.mixer.scale.kernel 8x1x1x1
stage2.0.mixer.scale.bias 8
stage2.0.mixer.scale_bn.gamma 8
stage2.0.mixer.scale_bn.beta 8
stage2.0.mixer.scale_bn.mean 8
stage2.0.mixer.scale_bn.var 8
stage2.0.mixer.identity_bn.gamma 8
stage2.0.mixer.identity_bn.beta 8
stage2.0.mixer.identity_bn.mean 8
stage2.0.mixer.identity_bn.var 8
stage2.0.expand.kernel 16x8x1x1
stage2.0.expand.bias 16
stage2.0.expand_bn.gamma 16
stage2.0.expand_bn.beta 16
stage2.0.expand_bn.mean 16
stage2.0.expand_bn.var 16
stage2.0.project.kernel 8x16x1x1
stage2.0.project.bias 8
stage2.0.project_bn.gamma 8
stage2.0.project_bn.beta 8
stage2.0.project_bn.mean 8
stage2.0.project_bn.var 8
down23.main.kernel 8x8x3x3
down23.main.bias 8
down23.main_bn.gamma 8
down23.main_bn.beta 8
down23.main_bn.mean 8
down23.main_bn.var 8
down23.scale.kernel 8x8x1x1
down23.scale.bias 8
down23.scale_bn.gamma 8
down23.scale_bn.beta 8
down23.scale_bn.mean 8
down23.scale_bn.var 8
stage3.0.mixer.main.kernel 8x1x3x3
stage3.0.mixer.main.bias 8
stage3.0.mixer.main_bn.gamma 8
stage3.0.mixer.main_bn.beta 8
stage3.0.mixer.main_bn.mean 8
stage3.0.mixer.main_bn.var 8
stage3.0.mixer.scale.kernel 8x1x1x1
stage3.0.mixer.scale.bias 8
stage3.0.mixer.scale_bn.gamma 8
stage3.0.mixer.scale_bn.beta 8
stage3.0.mixer.scale_bn.mean 8
stage3.0.mixer.scale_bn.var 8
stage3.0.mixer.identity_bn.gamma 8
stage3.0.mixer.identity_bn.beta 8
stage3.0.mixer.identity_bn.mean 8
stage3.0.mixer.identity_bn.var 8
stage3.0.proj_p.kernel 40x8x1x1
stage3.0.proj_p.bias 40
stage3.0.proj_p_bn.gamma 40
stage3.0.proj_p_bn.beta 40
stage3.0.proj_p_bn.mean 40
stage3.0.proj_p_bn.var 40
stage3.0.proj_o.kernel 8x8x1x1
stage3.0.proj_o.bias 8
stage3.0.proj_o_bn.gamma 8
stage3.0.proj_o_bn.beta 8
stage3.0.proj_o_bn.mean 8
stage3.0.proj_o_bn.var 8
stage3.0.expand.kernel 16x8x1x1
stage3.0.expand.bias 16
stage3.0.expand_bn.gamma 16
stage3.0.expand_bn.beta 16
stage3.0.expand_bn.mean 16
stage3.0.expand_bn.var 16
stage3.0.project.kernel 8x16x1x1
stage3.0.project.bias 8
stage3.0.project_bn.gamma 8
stage3.0.project_bn.beta 8
stage3.0.project_bn.mean 8
stage3.0.project_bn.var 8
head.weight 10x8
head.bias 10
"""

DEPLOY_TENSORS = """
stem.0.fused.kernel 1x3x3x3
stem.0.fused.bias 1
stem.1.fused.kernel 2x1x3x3
stem.1.fused.bias 2
stem.2.fused.kernel 4x2x3x3
stem.2.fused.bias 4
stem.3.fused.kernel 8x4x3x3
stem.3.fused.bias 8
stage1.0.mixer_fused.kernel 8x1x3x3
stage1.0.mixer_fused.bias 8
stage1.0.expand_fused.kernel 16x8x1x1
stage1.0.expand_fused.bias 16
stage1.0.project_fused.kernel 8x16x1x1
stage1.0.project_fused.bias 8
down12.fused.kernel 8x8x3x3
down12.fused.bias 8
stage2.0.mixer_fused.kernel 8x1x3x3
stage2.0.mixer_fused.bias 8
stage2.0.expand_fused.kernel 16x8x1x1
stage2.0.expand_fused.bias 16
stage2.0.project_fused.kernel 8x16x1x1
stage2.0.project_fused.bias 8
down23.fused.kernel 8x8x3x3
down23.fused.bias 8
stage3.0.mixer_fused.kernel 8x1x3x3
stage3.0.mixer_fused.bias 8
stage3.0.proj_p_fused.kernel 40x8x1x1
stage3.0.proj_p_fused.bias 40
stage3.0.proj_o_fused.kernel 8x8x1x1
stage3.0.proj_o_fused.bias 8
stage3.0.expand_fused.kernel 16x8x1x1
stage3.0.expand_fused.bias 16
stage3.0.project_fused.kernel 8x16x1x1
stage3.0.project_fused.bias 8
head.weight 10x8
head.bias 10
"""

COUNT_ENTRIES = {
    "sdta": [
        "stem.0", "stem.1", "stem.2", "stem.3", "stage1.0.mixer", "stage1.0.ffn", "down12",
        "stage2.0.mixer", "stage2.0.ffn", "down23", "stage3.0.mixer", "stage3.0.proj_p",
        "stage3.0.attn_qk", "stage3.0.attn_av", "stage3.0.proj_o", "stage3.0.ffn", "head",
    ],
    "mdta": [
        "stem.0", "stem.1", "stem.2", "stem.3", "stage1.0.mixer", "stage1.0.ffn", "down12",
        "stage2.0.mixer", "stage2.0.ffn", "down23", "stage3.0.qkv", "stage3.0.dw",
        "stage3.0.attn_qk", "stage3.0.attn_av", "stage3.0.proj", "stage3.0.ffn", "head",
    ],
}

FUSABLE_UNITS = {
    "down12", "down23", "stage1.0.ffn.expand", "stage1.0.ffn.project", "stage1.0.mixer",
    "stage2.0.ffn.expand", "stage2.0.ffn.project", "stage2.0.mixer", "stage3.0.ffn.expand",
    "stage3.0.ffn.project", "stage3.0.mixer", "stage3.0.proj_o", "stage3.0.proj_p",
    "stem.0", "stem.1", "stem.2", "stem.3",
}


def parse(table: str) -> list:
    rows = [line.split() for line in table.strip().splitlines()]
    return [(name, tuple(int(d) for d in shape.split("x"))) for name, shape in rows]


@pytest.fixture(scope="module")
def tiny():
    return build(TINY, seed=0)


def test_train_tensor_names_and_shapes(tiny):
    assert [(n, a.shape) for n, a in named_tensors(tiny)] == parse(TRAIN_TENSORS)


def test_deploy_tensor_names_and_shapes(tiny):
    assert [(n, a.shape) for n, a in named_tensors(deploy(tiny))] == parse(DEPLOY_TENSORS)


@pytest.mark.parametrize("attention", ["sdta", "mdta"])
@pytest.mark.parametrize("mode", ["train", "deploy"])
def test_count_entry_names(attention, mode):
    config = dataclasses.replace(TINY, attention=attention)
    assert [e.name for e in count(config, mode).entries] == COUNT_ENTRIES[attention]


def test_fusable_unit_names(tiny):
    names = [n for n, _ in fusable_branches(tiny)]
    assert len(names) == 17
    assert set(names) == FUSABLE_UNITS


def test_ablation_attention_units_are_fusable():
    ablation = build(dataclasses.replace(TINY, attention="mdta"), seed=0)
    names = [n for n, _ in fusable_branches(ablation)]
    assert [n for n in names if n.startswith("stage3.")] == [
        "stage3.0.qkv", "stage3.0.dw", "stage3.0.proj",
        "stage3.0.ffn.expand", "stage3.0.ffn.project"]
    assert len(names) == 17
