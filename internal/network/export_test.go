package network

import "hsis/internal/quant"

// IsoInstantiatedClusters exposes the iso clusters as they are before
// the cross-replica merge, so tests can tell a merged cluster from a
// single instantiated one.
func (n *Network) IsoInstantiatedClusters() []quant.Conjunct {
	n.ensureIsoDetect()
	return n.instantiateIsoClusters()
}

// Plans returns the last compiled image/preimage pair without compiling
// one: nil before the first replay, and after a reorder session the pair
// of the earlier epoch until the next replay recompiles it.
func (n *Network) Plans() (img, pre *quant.CompiledPlan) { return n.imgPlan, n.prePlan }
