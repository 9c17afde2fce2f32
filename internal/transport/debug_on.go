//go:build simdebug

package transport

// demuxDebug enables the endpoint demux checks: a key names this host, an
// insert never replaces a live connection, and every early-demux hit is
// checked against the map lookup it replaces. Build with `-tags simdebug`
// (done by `make check`) to turn them into panics; in release builds the
// guarded branches compile away.
const demuxDebug = true
