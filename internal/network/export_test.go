package network

import "hsis/internal/quant"

// IsoInstantiatedClusters exposes the iso clusters as they are before
// the cross-replica merge, so tests can tell a merged cluster from a
// single instantiated one.
func (n *Network) IsoInstantiatedClusters() []quant.Conjunct {
	n.ensureIsoDetect()
	return n.instantiateIsoClusters()
}
