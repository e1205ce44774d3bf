package bgp

// Encoders and accessors only the tests use: the decoders' inputs are built
// with them.

// The ORIGIN codes the MRT export never writes.
const (
	OriginEGP        OriginCode = 1
	OriginIncomplete OriginCode = 2
)

// Marshal encodes the attribute set in BGP path-attribute wire format.
func (a AttrSet) Marshal() ([]byte, error) { return a.AppendWire(nil) }

// seq wraps a flat path into one AS_SEQUENCE segment, the shape ExportMRT
// writes; an empty path has no segment. The bgp, mrt and routing tests each
// keep this copy: metrictest imports routing, so none of them can import it.
func seq(p Path) ASPath {
	if len(p) == 0 {
		return nil
	}
	return ASPath{{Type: SegmentSequence, ASNs: p}}
}
