//! Codec properties: every JSON message the crate writes decodes back to
//! itself, and no decoder panics on hostile input.
//!
//! * generated wire requests, campaign specs and trace records round-trip
//!   to identity and re-encode to the same bytes (journal rows have the
//!   same property in `tests/metamorphic_oracles.rs`);
//! * arbitrary bytes, JSON-shaped token soup and truncated prefixes of
//!   valid lines, fed to `ClientMsg::decode`, `decode_row`, `decode_record`
//!   and `CampaignSpec::decode`, return errors instead of panicking.

use swarm_testkit::domain::{campaign_spec, client_msg, journal_row, trace_record};
use swarm_testkit::{check, gens, Gen};
use swarmfuzz::store::{decode_row, encode_row};
use swarmfuzz::trace::{decode_record, encode_record};
use swarmfuzz::wire::ClientMsg;
use swarmfuzz::CampaignSpec;

/// Decodes `line`, checks the value and its re-encoding against the input.
fn round_trip<T: PartialEq + std::fmt::Debug>(
    value: &T,
    line: &str,
    decode: impl Fn(&str) -> Result<T, String>,
    encode: impl Fn(&T) -> String,
) -> Result<(), String> {
    let decoded = decode(line).map_err(|e| format!("decode failed on {line:?}: {e}"))?;
    if &decoded != value {
        return Err(format!("round trip drifted:\n  in:  {value:?}\n  out: {decoded:?}"));
    }
    let again = encode(&decoded);
    if again != line {
        return Err(format!("re-encoding changed the bytes:\n  {line:?}\n  {again:?}"));
    }
    Ok(())
}

#[test]
fn client_messages_round_trip() {
    check("codec-client-msg-round-trip", &client_msg(), |msg| {
        round_trip(msg, &msg.encode(), ClientMsg::decode, ClientMsg::encode)
    });
}

#[test]
fn campaign_specs_round_trip() {
    check("codec-campaign-spec-round-trip", &campaign_spec(), |spec| {
        round_trip(spec, &spec.encode(), CampaignSpec::decode, CampaignSpec::encode)
    });
}

#[test]
fn trace_records_round_trip() {
    check("codec-trace-record-round-trip", &trace_record(), |record| {
        round_trip(record, &encode_record(record), decode_record, encode_record)
    });
}

/// Feeds `text` to every decoder; a panic fails the property.
fn decode_everywhere(text: &str) -> Result<(), String> {
    std::panic::catch_unwind(|| {
        let _ = ClientMsg::decode(text);
        let _ = decode_row(text);
        let _ = decode_record(text);
        let _ = CampaignSpec::decode(text);
    })
    .map_err(|_| format!("a decoder panicked on {text:?}"))
}

/// Arbitrary bytes, made text the way a reader of untrusted input must.
fn arbitrary_text() -> Gen<String> {
    gens::vec_of(&gens::u64_in(0..=255), 0..=256).map(|bytes| {
        String::from_utf8_lossy(&bytes.iter().map(|&b| b as u8).collect::<Vec<_>>()).into_owned()
    })
}

/// Concatenated JSON fragments and schema keys: input that gets past the
/// first byte and into nested values, escapes and field lookups.
fn token_soup() -> Gen<String> {
    let mut tokens: Vec<String> =
        r#"{ } [ ] " : , \ \u \ud800 0 -1.5e3 1e999 - 18446744073709551616 true null inf -inf NaN λ"#
            .split(' ')
            .map(str::to_string)
            .collect();
    tokens.extend([" ".to_string(), "\u{0}".to_string()]);
    let keys = "msg submit status job spec swarmfuzz-campaign version configs row done finding \
                waveform ev probe s theta";
    tokens.extend(keys.split_whitespace().map(|k| format!("\"{k}\"")));
    let token = gens::one_of(tokens);
    gens::vec_of(&token, 0..=64).map(|tokens| tokens.concat())
}

/// A valid line from one of the four encoders, cut at a char boundary.
fn truncated_line() -> Gen<String> {
    let line = gens::usize_in(0..=3).flat_map(|kind| match kind {
        0 => client_msg().map(|m| m.encode()),
        1 => campaign_spec().map(|s| s.encode()),
        2 => trace_record().map(|r| encode_record(&r)),
        _ => journal_row().map(|r| encode_row(&r)),
    });
    gens::zip2(&line, &gens::f64_unit()).map(|(line, cut)| {
        let mut end = (line.len() as f64 * cut) as usize;
        while !line.is_char_boundary(end) {
            end -= 1;
        }
        line[..end].to_string()
    })
}

#[test]
fn arbitrary_bytes_never_panic_a_decoder() {
    check("codec-arbitrary-bytes-never-panic", &arbitrary_text(), |text| decode_everywhere(text));
}

#[test]
fn token_soup_never_panics_a_decoder() {
    check("codec-token-soup-never-panics", &token_soup(), |text| decode_everywhere(text));
}

#[test]
fn truncated_lines_never_panic_a_decoder() {
    check("codec-truncated-lines-never-panic", &truncated_line(), |text| decode_everywhere(text));
}
