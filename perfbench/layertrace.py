"""Per-layer tracing of vidchain from outside the package.

`install` replaces each traced name in the module that looks it up with a
wrapper that records, under the tracer's current phase, the number of calls,
the inclusive time and the self time (inclusive time minus the time of traced
calls made inside it).  `training` imports `backward`, `adam_step` and the
`loss_*` functions by name, `chain` does the same for its own, and `model`
does the same for `apply_mlp`, so each is patched where it is imported.
Methods are patched on their class.  Nothing under src/ changes, and the
wrappers exist only in the process that installed them.

While `phase` is None the wrappers call straight through and record nothing,
so output checks run after a timed stage do not pollute its numbers.
"""

from __future__ import annotations

import time

# The public primitives either workload calls.  `slice` is
# Tensor.__getitem__, which calls autodiff._slice.  `matmul`, `relu`,
# `broadcast_to` and `detach` are called on neither workload.
PRIMITIVES = ("add", "sub", "mul", "neg", "affine", "tanh", "sigmoid", "mean",
              "sum", "square", "log", "exp", "concat", "clip", "reshape",
              "slice")


class Tracer:
    def __init__(self):
        self.phase = None
        self.stats = {}       # "phase|name" -> [calls, inclusive s, self s]
        self._stack = []      # per open traced call: time spent in traced children
        self._bundles = []    # ModelBundles created in this process

    def add(self, name, elapsed, self_time=None, calls=1):
        entry = self.stats.setdefault(f"{self.phase}|{name}", [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += elapsed
        entry[2] += elapsed if self_time is None else self_time

    def count(self, name, n=1):
        """A counter: n more in the calls field, no time."""
        if self.phase is not None:
            self.add(name, 0.0, calls=n)

    def wrap(self, name, fn, label=None):
        """`fn` with timing; `label(*args)` may refine the recorded name."""
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                key = name if label is None else f"{name}.{label(*args)}"
                self.add(key, elapsed, elapsed - inner)

        return traced

    def component(self, params) -> str:
        """Name of the model component whose parameter list is `params`, or
        which holds the Tensor `params`; matched by identity."""
        for bundle in self._bundles:
            for name, plist in bundle.components.items():
                if plist is params or any(p is params for p in plist):
                    return name
        return "other"

    def dump(self) -> dict:
        return {key: list(v) for key, v in self.stats.items()}


def _backward_label(tracer, groups):
    """Labels a backward call "<phase>-<group>" by the group of its first
    and last parameter: d, enc, gen, or joint when they differ."""
    def group(tensor):
        comp = tracer.component(tensor)
        return next((g for g, members in groups.items() if comp in members),
                    "other")

    def label(loss, params):
        first, last = group(params[0]), group(params[-1])
        return f"{tracer.phase}-{first if first == last else 'joint'}"
    return label


def install(tracer: Tracer) -> None:
    """Patch every traced lookup site of the vidchain package."""
    from vidchain import (autodiff, chain, cli, container, losses, metrics,
                          model, rng, training)
    from vidchain.model import D_GROUP, ENC_GROUP, GEN_GROUP

    def patch(module, attr, name, label=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), label))

    for prim in PRIMITIVES:
        patch(autodiff, "_slice" if prim == "slice" else prim, f"autodiff.{prim}")

    label = _backward_label(tracer, {"d": D_GROUP, "enc": ENC_GROUP,
                                     "gen": GEN_GROUP})
    for module in (training, chain):
        timed = tracer.wrap("autodiff.backward", module.backward, label)

        def traced_backward(loss, params, _timed=timed):
            tape = getattr(loss, "_tape", None)
            tracer.count(f"autodiff.tape_records.{tracer.phase}",
                         len(tape.records) if tape is not None else 0)
            return _timed(loss, params)

        module.backward = traced_backward

    for module in (training, chain, metrics):
        patch(module, "adam_step", "optim.adam_step")
    patch(training, "sample_batch", "training.sample_batch")
    patch(training, "make_training_pairs", "chain.make_training_pairs")
    for attr in ("loss_d_image", "loss_d_video", "loss_enc", "loss_gen"):
        patch(training, attr, f"losses.{attr}")
    for attr in ("loss_d_image_r", "loss_d_video_merged", "loss_rencg"):
        patch(chain, attr, f"chain.{attr}")
    for module in (losses, chain):
        patch(module, "reparameterize", "gaussian.reparameterize")
        patch(module, "gaussian_kl", "gaussian.gaussian_kl")

    patch(model, "apply_mlp", "layers.apply_mlp",
          label=lambda params, x: tracer.component(params))
    model.ModelBundle.compose = tracer.wrap("model.compose",
                                            model.ModelBundle.compose)
    original_init = model.ModelBundle.init.__func__

    def init(cls, *args, **kwargs):
        bundle = original_init(cls, *args, **kwargs)
        tracer._bundles.append(bundle)
        return bundle

    model.ModelBundle.init = classmethod(init)

    for module in (model, cli):
        patch(module, "load_checkpoint", "container.load_checkpoint")
    patch(model, "save_checkpoint", "container.save_checkpoint")
    for module in (container, cli):
        patch(module, "read_container", "container.read_container")
        patch(module, "load_dataset", "container.load_dataset")
    container.ContainerWriter.append = tracer.wrap(
        "container.append", container.ContainerWriter.append)

    for attr in ("segmentwise_scores", "train_probe"):
        patch(cli, attr, f"metrics.{attr}")
    patch(metrics, "frechet_distance", "metrics.frechet_distance")
    patch(metrics, "segment_nonoverlapping", "video.segment_nonoverlapping")
    metrics.FeatureExtractor.features = tracer.wrap(
        "metrics.features", metrics.FeatureExtractor.features)

    split = rng.RandomStream.split

    def counted_split(self, name):
        tracer.count("rng.split")
        return split(self, name)

    rng.RandomStream.split = counted_split

    generate = cli.chain_generate

    def traced_chain_generate(*args, sink=None, **kwargs):
        """chain_generate with `sink` timed: the gap between successive
        sink calls is the time to produce one clip."""
        if sink is None or tracer.phase is None:
            return generate(*args, sink=sink, **kwargs)
        last = []

        def timed_sink(block):
            now = time.perf_counter()
            if last:
                tracer.add("chain.clip", now - last[0])
            last[:] = [now]
            sink(block)

        return generate(*args, sink=timed_sink, **kwargs)

    cli.chain_generate = tracer.wrap("chain.chain_generate", traced_chain_generate)

