package core

import (
	"bytes"
	"reflect"
	"testing"

	"accentmig/internal/wire"
)

// coreBodyOps lists every op whose body codec this package registers.
var coreBodyOps = []int{
	OpCore, OpRIMAS, OpMigrateAck, OpCoreAck, OpPreCopy, OpPreCopyAck, OpManifest, OpManifestAck,
}

// FuzzDecodeBody feeds arbitrary bytes to every body codec this package
// registers; op picks the codec, modulo len(coreBodyOps). Decoding must
// never panic, and a body it accepts must survive a re-encode: decoding
// the re-encoded bytes gives back an equal value, which encodes to the
// same bytes again. The seed corpus in testdata/fuzz holds a body of
// every op written by the codecs themselves (a Core context with
// pending mail, a RIMAS run table, acks, a pre-copy round, a manifest
// built from a real attachment and its answer), a truncated manifest,
// an empty Core body, and Core contexts whose pending mail is a RIMAS
// frame of one-page collapsed runs, a read reply of several runs, or a
// frame whose run count exceeds its bytes.
func FuzzDecodeBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		codec, ok := wire.LookupBody(coreBodyOps[int(op)%len(coreBodyOps)])
		if !ok {
			t.Fatalf("op %#x has no registered codec", coreBodyOps[int(op)%len(coreBodyOps)])
		}
		v, err := codec.Decode(body, nil)
		if err != nil {
			return
		}
		again, extras, err := codec.Marshal(v)
		if err != nil {
			t.Fatalf("re-encode of a decoded %T: %v", v, err)
		}
		v2, err := codec.Decode(again, extras)
		if err != nil {
			t.Fatalf("decode of a re-encoded %T: %v", v, err)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("round trip changed the body:\n%+v\n%+v", v, v2)
		}
		third, _, err := codec.Marshal(v2)
		if err != nil || !bytes.Equal(third, again) {
			t.Fatalf("a second re-encode changed the bytes (err %v)", err)
		}
	})
}
