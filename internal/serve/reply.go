package serve

import (
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file renders POST /color success replies without reflection. The
// bytes are exactly json.NewEncoder(w).Encode(out)'s — fields in struct
// order, omitempty honoured, strings escaped as encoding/json escapes
// them with its default HTML escaping, and the trailing newline — so a
// client cannot tell the two apart; FuzzWriteColorResponse and
// TestWriteColorResponseEveryField hold it to that. Decoding stays with
// encoding/json.

// replyBufs pools the buffers replies are rendered into.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteColorResponse writes out to w as json.NewEncoder(w).Encode(out)
// would, byte for byte, in one Write.
func WriteColorResponse(w io.Writer, out *ColorResponse) error {
	bp := replyBufs.Get().(*[]byte)
	b := appendColorResponse((*bp)[:0], out)
	_, err := w.Write(b)
	*bp = b
	replyBufs.Put(bp)
	return err
}

// appendColorResponse appends out's JSON encoding and a newline to b. A
// field added to ColorResponse must be added here too, in struct order.
func appendColorResponse(b []byte, out *ColorResponse) []byte {
	b = append(b, `{"fingerprint":`...)
	b = appendJSONString(b, out.Fingerprint)
	b = appendIntField(b, `,"num_colors":`, int64(out.NumColors))
	if len(out.Colors) > 0 {
		b = append(b, `,"colors":`...)
		b = appendColors(b, out.Colors)
	}
	b = appendIntField(b, `,"vertices":`, int64(out.Vertices))
	b = appendIntField(b, `,"edges":`, int64(out.Edges))
	b = appendIntField(b, `,"cycles":`, out.Cycles)
	b = appendIntField(b, `,"iterations":`, int64(out.Iterations))
	b = append(b, `,"recovery":`...)
	b = appendJSONString(b, out.Recovery)
	b = appendIntField(b, `,"attempts":`, int64(out.Attempts))
	b = appendIntOmitEmpty(b, `,"repaired":`, out.Repaired)
	b = appendBoolField(b, `,"cached":`, out.Cached)
	b = appendBoolField(b, `,"coalesced":`, out.Coalesced)
	b = appendTrueOmitEmpty(b, `,"hedged":true`, out.Hedged)
	b = appendTrueOmitEmpty(b, `,"batched":true`, out.Batched)
	b = appendIntOmitEmpty(b, `,"batch_size":`, out.BatchSize)
	b = appendIntField(b, `,"device":`, int64(out.Device))
	b = appendIntField(b, `,"wait_us":`, out.WaitUS)
	b = appendIntField(b, `,"exec_us":`, out.ExecUS)
	b = appendIntOmitEmpty(b, `,"shards":`, out.Shards)
	b = appendIntOmitEmpty(b, `,"shard_conflicts":`, out.ShardConflicts)
	b = appendIntOmitEmpty(b, `,"shard_repair_rounds":`, out.ShardRepairRounds)
	b = appendIntOmitEmpty(b, `,"shard_recolored":`, out.ShardRecolored)
	b = appendTrueOmitEmpty(b, `,"delta":true`, out.Delta)
	b = appendIntOmitEmpty(b, `,"frontier_size":`, out.FrontierSize)
	b = appendTrueOmitEmpty(b, `,"delta_fallback":true`, out.DeltaFallback)
	b = appendStringOmitEmpty(b, `,"base_fingerprint":`, out.BaseFingerprint)
	b = append(b, `,"request_id":`...)
	b = appendJSONString(b, out.RequestID)
	b = appendTrueOmitEmpty(b, `,"idempotent_replay":true`, out.IdempotentReplay)
	b = appendStringOmitEmpty(b, `,"worker":`, out.Worker)
	b = appendTrueOmitEmpty(b, `,"scattered":true`, out.Scattered)
	b = appendIntOmitEmpty(b, `,"redispatched":`, out.Redispatched)
	return append(b, "}\n"...)
}

func appendIntField(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendIntOmitEmpty(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return appendIntField(b, key, int64(v))
}

func appendBoolField(b []byte, key string, v bool) []byte {
	return strconv.AppendBool(append(b, key...), v)
}

// appendTrueOmitEmpty appends keyTrue (the key with its true value) when
// v is set.
func appendTrueOmitEmpty(b []byte, keyTrue string, v bool) []byte {
	if !v {
		return b
	}
	return append(b, keyTrue...)
}

func appendStringOmitEmpty(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return appendJSONString(append(b, key...), v)
}

// smallInts holds the decimal text of every color below 1000, which is
// nearly every color a coloring uses.
var smallInts = func() (t [1000]string) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

// appendColors appends colors as a JSON array of integers.
func appendColors(b []byte, colors []int32) []byte {
	b = append(b, '[')
	for i, c := range colors {
		if i > 0 {
			b = append(b, ',')
		}
		if uint32(c) < uint32(len(smallInts)) {
			b = append(b, smallInts[c]...)
		} else {
			b = strconv.AppendInt(b, int64(c), 10)
		}
	}
	return append(b, ']')
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping on: '"' and '\\' backslashed; \b, \f, \n,
// \r and \t short-escaped; other control bytes and '<', '>', '&' as
// \u00XX; each byte of invalid UTF-8 as \ufffd; U+2028 and U+2029 as
// \u2028 and \u2029; everything else verbatim.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
