//! Compression for small-bandwidth channels.
//!
//! The paper's performance-category example for transport-level QoS:
//! trade CPU for bytes on the wire. The codec is a from-scratch
//! LZ77-style compressor (the offline dependency set has no compression
//! crate); only the bytes-on-the-wire reduction matters for the
//! experiment, not codec strength.

use orb::sync::{LockRank, OrderedRwLock};
use orb::qos_binding::{Outbound, QosModule};
use orb::{Any, MetricsRegistry, OrbError};
use netsim::NodeId;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

/// The LZ77-style codec.
pub mod codec {
    /// Magic prefix of compressed buffers.
    pub const MAGIC: &[u8; 4] = b"MLZ1";

    use std::cell::RefCell;

    const WINDOW: usize = 4096;
    const MIN_MATCH: usize = 4;
    const MAX_MATCH: usize = 255;
    /// Candidates visited per position.
    const CHAIN: usize = 16;
    const HASH_BITS: u32 = 13;
    /// `prev` is a ring over input positions: the match finder only ever
    /// follows a link out of a position inside the window, and a slot is
    /// overwritten only by a position `RING` later — out of the window.
    const RING: usize = 2 * WINDOW;
    const NONE: u32 = u32::MAX;

    /// Match-finder tables, reused by every call on a thread. A `head`
    /// entry packs the call's epoch (high half) with a position (low
    /// half), so a new call invalidates the table by bumping the epoch
    /// instead of refilling 8192 slots. `prev` needs no reset: a slot is
    /// written when its position is inserted, before any walk reads it.
    struct Tables {
        epoch: u32,
        head: Vec<u64>,
        prev: Vec<u32>,
    }

    thread_local! {
        static TABLES: RefCell<Tables> = RefCell::new(Tables {
            epoch: 0,
            head: vec![0; 1 << HASH_BITS],
            prev: vec![NONE; RING],
        });
    }

    fn hash(input: &[u8], at: usize) -> usize {
        let v = u32::from_le_bytes([input[at], input[at + 1], input[at + 2], input[at + 3]]);
        (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
    }

    /// Length of the common prefix of `input[a..]` and `input[b..]`, up
    /// to `max` (`b + max` must be in bounds), compared 8 bytes a step.
    fn match_len(input: &[u8], a: usize, b: usize, max: usize) -> usize {
        let word = |at: usize| {
            let w: [u8; 8] = input[at..at + 8].try_into().expect("8-byte window");
            u64::from_le_bytes(w)
        };
        let mut l = 0;
        while l + 8 <= max {
            let diff = word(a + l) ^ word(b + l);
            if diff != 0 {
                return l + (diff.trailing_zeros() / 8) as usize;
            }
            l += 8;
        }
        while l < max && input[a + l] == input[b + l] {
            l += 1;
        }
        l
    }

    fn emit_literals(out: &mut Vec<u8>, lits: &[u8]) {
        for run in lits.chunks(u16::MAX as usize) {
            out.push(0x00);
            out.extend_from_slice(&(run.len() as u16).to_le_bytes());
            out.extend_from_slice(run);
        }
    }

    /// Compress `input` (below 4 GiB; wire frames are capped far lower).
    ///
    /// Output layout: `MAGIC`, then a token stream. Token first byte:
    /// `0x00, len(u16 le), bytes` = literal run; `0x01, dist(u16 le),
    /// len(u8)` = back-reference. Incompressible inputs grow by at most a
    /// few bytes per 64 KiB literal run plus the 4-byte magic.
    ///
    /// The parse is greedy: at each position the longest match among the
    /// 16 most recent candidates sharing its 4-byte hash (within a
    /// 4096-byte window, 4–255 bytes, earliest wins a tie), else one
    /// literal. The output is pinned byte for byte by a golden test.
    pub fn compress(input: &[u8]) -> Vec<u8> {
        assert!(input.len() < NONE as usize, "compress: input of {} bytes", input.len());
        TABLES.with(|tables| {
            let mut tables = tables.borrow_mut();
            let Tables { epoch, head, prev } = &mut *tables;
            *epoch = epoch.wrapping_add(1);
            if *epoch == 0 {
                head.fill(0);
                *epoch = 1;
            }
            let tag = u64::from(*epoch) << 32;
            // Make `at` the newest position for its hash; returns the one
            // it displaced (this call's only), which becomes its link.
            let insert = |head: &mut [u64], prev: &mut [u32], at: usize| -> u32 {
                let h = hash(input, at);
                let last = head[h];
                head[h] = tag | at as u64;
                let last = if last & !0xffff_ffff == tag { last as u32 } else { NONE };
                prev[at % RING] = last;
                last
            };
            let mut out = Vec::with_capacity(input.len() / 2 + 16);
            out.extend_from_slice(MAGIC);
            let mut lit_start = 0;
            let mut i = 0;
            while i < input.len() {
                let mut best_len = 0;
                let mut best_dist = 0;
                if i + MIN_MATCH <= input.len() {
                    let max = (input.len() - i).min(MAX_MATCH);
                    let mut cand = insert(head, prev, i);
                    let mut chain = 0;
                    while cand != NONE && i - cand as usize <= WINDOW && chain < CHAIN {
                        let c = cand as usize;
                        // Only a candidate that also matches at
                        // `best_len` can be strictly longer.
                        if best_len == 0 || input[c + best_len] == input[i + best_len] {
                            let l = match_len(input, c, i, max);
                            if l > best_len {
                                best_len = l;
                                best_dist = i - c;
                                if l == max {
                                    break;
                                }
                            }
                        }
                        cand = prev[c % RING];
                        chain += 1;
                    }
                }
                if best_len >= MIN_MATCH {
                    emit_literals(&mut out, &input[lit_start..i]);
                    out.push(0x01);
                    out.extend_from_slice(&(best_dist as u16).to_le_bytes());
                    out.push(best_len as u8);
                    // Insert hash entries for the matched region (cheap, coarse).
                    let end = i + best_len;
                    for j in i + 1..end.min(input.len().saturating_sub(3)) {
                        insert(head, prev, j);
                    }
                    i = end;
                    lit_start = i;
                } else {
                    i += 1;
                }
            }
            emit_literals(&mut out, &input[lit_start..]);
            out
        })
    }

    /// Decompress a buffer produced by [`compress`].
    ///
    /// # Errors
    ///
    /// Returns a description of the corruption on malformed input.
    pub fn decompress(input: &[u8]) -> Result<Vec<u8>, String> {
        let body = input
            .strip_prefix(MAGIC.as_slice())
            .ok_or_else(|| "missing MLZ1 magic".to_string())?;
        let mut out = Vec::with_capacity(body.len() * 2);
        let mut i = 0;
        while i < body.len() {
            match body[i] {
                0x00 => {
                    if i + 3 > body.len() {
                        return Err("truncated literal header".to_string());
                    }
                    let len = u16::from_le_bytes([body[i + 1], body[i + 2]]) as usize;
                    i += 3;
                    if i + len > body.len() {
                        return Err("truncated literal run".to_string());
                    }
                    out.extend_from_slice(&body[i..i + len]);
                    i += len;
                }
                0x01 => {
                    if i + 4 > body.len() {
                        return Err("truncated match token".to_string());
                    }
                    let dist = u16::from_le_bytes([body[i + 1], body[i + 2]]) as usize;
                    let len = body[i + 3] as usize;
                    i += 4;
                    if dist == 0 || dist > out.len() {
                        return Err(format!("bad match distance {dist}"));
                    }
                    // An overlapping match (len > dist) repeats the last
                    // `dist` bytes: copy it in period-sized chunks.
                    let mut from = out.len() - dist;
                    let mut left = len;
                    while left > 0 {
                        let n = left.min(dist);
                        out.extend_from_within(from..from + n);
                        from += n;
                        left -= n;
                    }
                }
                t => return Err(format!("bad token {t}")),
            }
        }
        Ok(out)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn roundtrip(data: &[u8]) {
            let c = compress(data);
            assert_eq!(decompress(&c).unwrap(), data, "len={}", data.len());
        }

        #[test]
        fn roundtrips() {
            roundtrip(b"");
            roundtrip(b"a");
            roundtrip(b"hello world hello world hello world");
            roundtrip(&[0u8; 10_000]);
            roundtrip("the quick brown fox ".repeat(500).as_bytes());
            let noisy: Vec<u8> = (0..5_000u32).map(|i| (i.wrapping_mul(2654435761)) as u8).collect();
            roundtrip(&noisy);
        }

        #[test]
        fn repetitive_data_compresses_well() {
            let data = b"abcdefgh".repeat(1000);
            let c = compress(&data);
            assert!(c.len() < data.len() / 5, "got {} of {}", c.len(), data.len());
        }

        #[test]
        fn random_data_grows_only_slightly() {
            let mut data = vec![0u8; 64 * 1024];
            netsim::Rng::seed_from_u64(1).fill_bytes(&mut data);
            let c = compress(&data);
            assert!(c.len() <= data.len() + 16, "got {} of {}", c.len(), data.len());
            assert_eq!(decompress(&c).unwrap(), data);
        }

        #[test]
        fn long_literal_runs_split_correctly() {
            let mut data = vec![0u8; 70_000]; // > u16::MAX literal run
            netsim::Rng::seed_from_u64(2).fill_bytes(&mut data);
            roundtrip(&data);
        }

        /// A seeded corpus shaped like marshalled records: literal
        /// noise, repeated field names, single-byte runs and copies of
        /// earlier spans at distances on both sides of the window edge.
        fn corpus() -> Vec<Vec<u8>> {
            const WORDS: [&[u8]; 6] =
                [b"IDL:Echo:1.0", b"operation", b"\0\0\0\x08", b"compression", b"ticker", b"qos"];
            let mut rng = netsim::Rng::seed_from_u64(0x4d4c_5a31);
            let mut cases = Vec::new();
            for case in 0..160u64 {
                let len = match case % 16 {
                    0 => (rng.next_u64() % 24_000) as usize,
                    _ => (rng.next_u64() % 5_000) as usize,
                };
                let mut data: Vec<u8> = Vec::with_capacity(len + 300);
                while data.len() < len {
                    match rng.next_u64() % 4 {
                        0 => {
                            for _ in 0..1 + rng.next_u64() % 32 {
                                data.push(rng.next_u64() as u8);
                            }
                        }
                        1 => data.extend_from_slice(WORDS[(rng.next_u64() % 6) as usize]),
                        2 if !data.is_empty() => {
                            let dist = 1 + (rng.next_u64() % 4_200) as usize;
                            let start = data.len().saturating_sub(dist);
                            let n = 3 + (rng.next_u64() % 300) as usize;
                            for k in 0..n {
                                data.push(data[start + k]);
                            }
                        }
                        _ => {
                            let b = rng.next_u64() as u8;
                            data.extend(std::iter::repeat_n(b, 1 + (rng.next_u64() % 80) as usize));
                        }
                    }
                }
                data.truncate(len);
                cases.push(data);
            }
            cases
        }

        /// The exact compressed bytes are pinned: a faster kernel must
        /// produce the same greedy parse, so `wire_bytes_per_call` and
        /// every peer that decodes these frames see no change.
        #[test]
        fn output_is_pinned_on_a_seeded_corpus() {
            let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV-1a 64
            let mut total = 0usize;
            for data in corpus() {
                let c = compress(&data);
                assert_eq!(decompress(&c).unwrap(), data);
                total += c.len();
                for b in (c.len() as u64).to_le_bytes().iter().chain(&c) {
                    digest = (digest ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            let want = (90_372, 0x1b4d_41e1_3d57_5c52);
            assert_eq!((total, digest), want, "compressed corpus drifted");
        }

        #[test]
        fn corrupt_input_rejected() {
            assert!(decompress(b"nope").is_err());
            assert!(decompress(b"MLZ1\x00\xff\xff").is_err()); // truncated run
            assert!(decompress(b"MLZ1\x01\x01\x00\x05").is_err()); // dist > output
            assert!(decompress(b"MLZ1\x07").is_err()); // bad token
        }
    }
}

/// Transport-level compression QoS module.
///
/// Compresses every outbound GIOP body and decompresses inbound ones.
/// Dynamic interface: `stats()` → `[bytes_in, bytes_out]` (as
/// `ulonglong`s), `reset_stats()`.
#[derive(Debug)]
pub struct CompressionModule {
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    metrics: OrderedRwLock<Option<MetricsRegistry>>,
}

impl Default for CompressionModule {
    fn default() -> CompressionModule {
        CompressionModule {
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            metrics: OrderedRwLock::new(LockRank::QosMechMetrics, None),
        }
    }
}

/// The module name compression binds under.
pub const COMPRESSION_MODULE: &str = "compression";

impl CompressionModule {
    /// A fresh module with zeroed statistics.
    pub fn new() -> CompressionModule {
        CompressionModule::default()
    }

    /// Mirror byte counts into `registry` as counters
    /// `qos.compression.bytes_in` (uncompressed) and
    /// `qos.compression.bytes_out` (on the wire), so the wire savings
    /// show up next to the request-path metrics.
    pub fn set_metrics(&self, registry: Option<MetricsRegistry>) {
        *self.metrics.write() = registry;
    }

    /// Uncompressed bytes seen on the outbound path.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }

    /// Compressed bytes emitted on the outbound path.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// Output/input ratio (1.0 when nothing was seen).
    pub fn ratio(&self) -> f64 {
        let i = self.bytes_in();
        if i == 0 {
            1.0
        } else {
            self.bytes_out() as f64 / i as f64
        }
    }
}

impl QosModule for CompressionModule {
    fn name(&self) -> &str {
        COMPRESSION_MODULE
    }

    fn command(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "stats" => Ok(Any::Sequence(vec![
                Any::ULongLong(self.bytes_in()),
                Any::ULongLong(self.bytes_out()),
            ])),
            "reset_stats" => {
                self.bytes_in.store(0, Ordering::Relaxed);
                self.bytes_out.store(0, Ordering::Relaxed);
                Ok(Any::Void)
            }
            other => Err(OrbError::BadOperation(format!("compression command {other}"))),
        }
    }

    fn outbound(&self, dst: NodeId, bytes: Vec<u8>) -> Result<Outbound, OrbError> {
        self.bytes_in.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let compressed = codec::compress(&bytes);
        self.bytes_out.fetch_add(compressed.len() as u64, Ordering::Relaxed);
        if let Some(m) = self.metrics.read().as_ref() {
            m.add("qos.compression.bytes_in", bytes.len() as u64);
            m.add("qos.compression.bytes_out", compressed.len() as u64);
        }
        Ok(vec![(dst, compressed)])
    }

    fn inbound<'a>(
        &self,
        _src: NodeId,
        bytes: &'a [u8],
    ) -> Result<Option<Cow<'a, [u8]>>, OrbError> {
        codec::decompress(bytes)
            .map(|v| Some(Cow::Owned(v)))
            .map_err(|e| OrbError::Marshal(format!("decompression failed: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkModel, Network};
    use orb::qos_binding::BindingKey;
    use orb::giop::QosContext;
    use orb::{Orb, Servant};
    use std::sync::Arc;

    struct Blob;
    impl Servant for Blob {
        fn interface_id(&self) -> &str {
            "IDL:Blob:1.0"
        }
        fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
            match op {
                "echo" => Ok(args[0].clone()),
                _ => Err(OrbError::BadOperation(op.to_string())),
            }
        }
    }

    #[test]
    fn module_transforms_roundtrip() {
        let m = CompressionModule::new();
        let data = b"payload payload payload payload".to_vec();
        let out = m.outbound(NodeId(1), data.clone()).unwrap();
        assert_eq!(out.len(), 1);
        assert_ne!(out[0].1, data);
        let back = m.inbound(NodeId(1), &out[0].1).unwrap().unwrap();
        assert_eq!(back, data);
        assert!(m.bytes_out() < m.bytes_in());
        assert!(m.ratio() < 1.0);
    }

    #[test]
    fn byte_counters_mirror_into_metrics() {
        let m = CompressionModule::new();
        let registry = MetricsRegistry::new();
        m.set_metrics(Some(registry.clone()));
        m.outbound(NodeId(1), b"data ".repeat(100)).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("qos.compression.bytes_in"), 500);
        let out = snap.counter("qos.compression.bytes_out");
        assert!(out > 0 && out < 500);
        m.set_metrics(None);
        m.outbound(NodeId(1), vec![7; 64]).unwrap();
        assert_eq!(registry.snapshot().counter("qos.compression.bytes_in"), 500);
    }

    #[test]
    fn corrupt_inbound_is_marshal_error() {
        let m = CompressionModule::new();
        assert!(matches!(
            m.inbound(NodeId(1), &[1, 2, 3]),
            Err(OrbError::Marshal(_))
        ));
    }

    #[test]
    fn stats_command() {
        let m = CompressionModule::new();
        m.outbound(NodeId(1), vec![7; 100]).unwrap();
        let stats = m.command("stats", &[]).unwrap();
        let items = stats.as_sequence().unwrap();
        assert_eq!(items[0], Any::ULongLong(100));
        assert!(items[1].as_i64().unwrap() < 100);
        m.command("reset_stats", &[]).unwrap();
        assert_eq!(m.bytes_in(), 0);
        assert!(m.command("zip", &[]).is_err());
    }

    #[test]
    fn end_to_end_compressed_channel_saves_wire_bytes() {
        let net = Network::new(1);
        let server = Orb::start(&net, "server");
        let client = Orb::start(&net, "client");
        net.set_link(client.node(), server.node(), LinkModel::narrowband(64));
        let ior = server.activate_with_tags("blob", Box::new(Blob), &["compression"]);

        // First: uncompressed baseline.
        let payload = Any::Bytes(b"data ".repeat(2000)); // highly compressible
        client.invoke(&ior, "echo", std::slice::from_ref(&payload)).unwrap();
        let plain_bytes = net.stats().link(client.node(), server.node()).bytes_delivered;

        // Now bind the compression module on both sides.
        client.qos_transport().install(Arc::new(CompressionModule::new()));
        server.qos_transport().install(Arc::new(CompressionModule::new()));
        client
            .qos_transport()
            .bind(BindingKey { peer: None, key: ior.key.clone() }, COMPRESSION_MODULE)
            .unwrap();
        let qos = Some(QosContext::new("compression"));
        let reply = client.invoke_qos(&ior, "echo", std::slice::from_ref(&payload), qos).unwrap();
        assert_eq!(reply, payload);
        let total = net.stats().link(client.node(), server.node()).bytes_delivered;
        let compressed_bytes = total - plain_bytes;
        assert!(
            compressed_bytes * 4 < plain_bytes,
            "compressed {compressed_bytes} vs plain {plain_bytes}"
        );
        server.shutdown();
        client.shutdown();
    }
}
