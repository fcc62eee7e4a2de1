// Package repl implements WAL-shipping replication for the NOUS knowledge
// graph: a leader streams its write-ahead log over HTTP and read replicas
// apply it through the graph's replicated-apply path, keeping every derived
// index (entity maps, temporal index, analytics epoch cache) live.
//
// The wire protocol reuses the WAL's on-disk record framing — a uint32
// little-endian length, a CRC-32C checksum, then the encoded mutation — so
// the leader ships stored bytes without re-encoding (persist.AppendFrame)
// and the follower parses each frame with persist.ReadFrame, the reader
// recovery uses. One extra record kind exists only on the wire: a progress
// record (kind byte 0, below every real mutation kind) carrying the leader's
// current epoch, sent when a stream opens and as a heartbeat while the
// follower is caught up.
package repl

import "encoding/binary"

// progressKind is the wire-only record kind for leader progress/heartbeat
// frames. Real mutation kinds start at 1, so the zero byte is free.
const progressKind = 0

// progressPayload encodes a progress record: kind byte 0 followed by the
// leader's epoch as a uvarint — the same [kind, epoch] prefix shape every
// WAL record carries, so RecordEpoch works on it too.
func progressPayload(epoch uint64) []byte {
	buf := make([]byte, 1, 1+binary.MaxVarintLen64)
	buf[0] = progressKind
	return binary.AppendUvarint(buf, epoch)
}

// isProgress reports whether a record payload is a wire progress record and,
// if so, the leader epoch it carries.
func isProgress(payload []byte) (uint64, bool) {
	if len(payload) == 0 || payload[0] != progressKind {
		return 0, false
	}
	e, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return 0, false
	}
	return e, true
}
