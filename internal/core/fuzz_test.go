package core

import (
	"bytes"
	"reflect"
	"testing"

	"accentmig/internal/ipc"
	"accentmig/internal/wire"
)

// coreBodyOps lists every op whose body codec this package registers.
var coreBodyOps = []int{
	OpCore, OpRIMAS, OpMigrateAck, OpCoreAck, OpPreCopy, OpPreCopyAck, OpManifest, OpManifestAck,
}

// FuzzDecodeBody feeds arbitrary bytes to every body codec this package
// registers; op picks the codec, modulo len(coreBodyOps), and a second
// byte string supplies the page images that nested messages' run
// headers ask for (wire.BodyCodec.UnmarshalImages). Decoding must never
// panic, and a body it accepts must survive a re-encode: a message
// carrying it decodes, with its extras, to an equal body, which encodes
// to the same frame again. A Core body decoded from bytes alone has no
// program, which crosses by reference (wire.Decoder.Ref), and a body
// with bytes its codec does not read is refused. The seed corpus in
// testdata/fuzz holds a
// body of every op written by the codecs themselves (a Core context
// with pending mail, a RIMAS run table, acks, a pre-copy round, a
// manifest built from a real attachment and its answer), a truncated
// manifest, an empty Core body, and Core contexts whose pending mail is
// a RIMAS frame of one-page collapsed runs, a read reply of several
// runs, or a frame whose run count exceeds its bytes.
func FuzzDecodeBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, op uint8, body, images []byte) {
		code := coreBodyOps[int(op)%len(coreBodyOps)]
		codec, ok := wire.LookupBody(code)
		if !ok {
			t.Fatalf("op %#x has no registered codec", code)
		}
		v, err := codec.UnmarshalImages(body, images)
		if err != nil {
			return
		}
		again, extras, err := wire.EncodeMessage(&ipc.Message{Op: code, Body: v})
		if err != nil {
			t.Fatalf("re-encode of a decoded %T: %v", v, err)
		}
		m, err := wire.DecodeMessage(again, extras)
		if err != nil {
			t.Fatalf("decode of a re-encoded %T: %v", v, err)
		}
		if !reflect.DeepEqual(v, m.Body) {
			t.Fatalf("round trip changed the body:\n%+v\n%+v", v, m.Body)
		}
		third, _, err := wire.EncodeMessage(m)
		if err != nil || !bytes.Equal(third, again) {
			t.Fatalf("a second re-encode changed the bytes (err %v)", err)
		}
	})
}
