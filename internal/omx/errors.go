package omx

import "errors"

// ErrGiveUp surfaces an abandoned operation: the reliability layer
// exhausted its retry budget (params.Proto.MaxResends consecutive
// backed-off attempts) without hearing from the peer and stopped
// retransmitting. Handles complete with Err set to this value instead of
// hanging the simulation on a dead link.
var ErrGiveUp = errors.New("omx: peer unreachable (retry budget exhausted)")
