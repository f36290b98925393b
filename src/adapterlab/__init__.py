"""Desk-scale lab for orthogonal language/task adapters and zero-shot transfer."""

from .autodiff import Tensor, grad_check
from .optim import Adam, ParamSet, clip_grad_norm

__all__ = ["Tensor", "Adam", "ParamSet", "clip_grad_norm", "grad_check"]
