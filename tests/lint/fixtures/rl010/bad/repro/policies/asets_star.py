"""The pre-fix ASETS* select loop: three believed-basis leak sites.

Site 1 launders the ground-truth read through ``getattr`` and a local,
so RL008 (which only matches ``ast.Attribute`` loads) never sees it —
only the taint tracking of RL010 reaches the feasibility comparison.
"""

__all__ = ["ASETSStarOld"]


class ASETSStarOld:
    def select(self, now):
        best_edf = None
        best_edf_key = None
        best_hdf = None
        best_hdf_key = None
        for wf in self._active.values():
            rep = wf.representative()
            r = getattr(rep, "remaining")
            if now + r <= rep.deadline:  # leak 1: laundered feasibility
                key = (rep.deadline, wf.wf_id)
                if best_edf_key is None or key < best_edf_key:
                    best_edf, best_edf_key = wf, key
            else:
                density = rep.weight / rep.remaining
                key = (-density, wf.wf_id)
                if best_hdf_key is None or key < best_hdf_key:  # leak 2
                    best_hdf, best_hdf_key = wf, key
        if best_edf is not None:
            return best_edf
        return best_hdf

    def hdf_list(self, now):
        out = [wf for wf in self._active_list if self._runnable(wf)]
        out.sort(
            key=lambda wf: (  # leak 3: HDF density on the true basis
                -(
                    wf.representative().weight
                    / wf.representative().remaining
                ),
                wf.wf_id,
            )
        )
        return out
