//! The Content Issuer: packages media into DCFs.
//!
//! The Content Issuer owns digital content and, in a procedure outside the
//! ROAP protocol ("any protocol" in Figure 1 of the paper), delivers
//! encrypted DCFs to devices and the corresponding content encryption keys
//! to the Rights Issuers it has negotiated licenses with.

use crate::dcf::{Dcf, DcfHeaders};
use oma_crypto::cbc;
use rand::RngCore;

/// The Content Issuer actor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentIssuer {
    id: String,
}

impl ContentIssuer {
    /// Creates a Content Issuer with the given identifier (typically a URL).
    pub fn new(id: &str) -> Self {
        ContentIssuer { id: id.to_string() }
    }

    /// The Content Issuer identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Packages `content` into a DCF under a freshly generated content
    /// encryption key, returning both. The key is subsequently shared with a
    /// Rights Issuer (see [`crate::RiService::add_content`]).
    pub fn package<R: RngCore + ?Sized>(
        &self,
        content: &[u8],
        content_id: &str,
        rng: &mut R,
    ) -> (Dcf, [u8; 16]) {
        self.package_with_headers(content, content_id, DcfHeaders::default(), rng)
    }

    /// Packages `content` with explicit descriptive headers.
    pub fn package_with_headers<R: RngCore + ?Sized>(
        &self,
        content: &[u8],
        content_id: &str,
        mut headers: DcfHeaders,
        rng: &mut R,
    ) -> (Dcf, [u8; 16]) {
        let mut cek = [0u8; 16];
        rng.fill_bytes(&mut cek);
        let mut iv = [0u8; 16];
        rng.fill_bytes(&mut iv);
        if headers.rights_issuer_url.is_empty() {
            headers.rights_issuer_url = format!("https://{}/rights", self.id);
        }
        let encrypted =
            cbc::encrypt(&cek, &iv, content).expect("fresh 16-byte key and IV are always valid");
        let dcf = Dcf::new(content_id, headers, iv, encrypted, content.len());
        (dcf, cek)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn packaged_content_is_encrypted_and_recoverable() {
        let ci = ContentIssuer::new("ci.example.com");
        let mut rng = StdRng::seed_from_u64(1);
        let content = b"a polyphonic ringtone";
        let (dcf, cek) = ci.package(content, "cid:ring-1", &mut rng);
        assert_eq!(dcf.content_id(), "cid:ring-1");
        assert_eq!(dcf.plaintext_len(), content.len());
        assert_ne!(dcf.encrypted_payload(), content.as_slice());
        let recovered = cbc::decrypt(&cek, dcf.iv(), dcf.encrypted_payload()).unwrap();
        assert_eq!(recovered, content);
        assert!(dcf.headers().rights_issuer_url.contains("ci.example.com"));
        assert_eq!(ci.id(), "ci.example.com");
    }

    #[test]
    fn distinct_packages_use_distinct_keys() {
        let ci = ContentIssuer::new("ci");
        let mut rng = StdRng::seed_from_u64(2);
        let (a, cek_a) = ci.package(b"same content", "cid:a", &mut rng);
        let (b, cek_b) = ci.package(b"same content", "cid:b", &mut rng);
        assert_ne!(cek_a, cek_b);
        assert_ne!(a.encrypted_payload(), b.encrypted_payload());
    }

    #[test]
    fn explicit_headers_preserved() {
        let ci = ContentIssuer::new("ci");
        let mut rng = StdRng::seed_from_u64(3);
        let headers = DcfHeaders {
            title: "Track".into(),
            author: "Band".into(),
            content_type: "audio/mpeg".into(),
            rights_issuer_url: "https://ri.example.com".into(),
        };
        let (dcf, _) = ci.package_with_headers(b"x", "cid:t", headers, &mut rng);
        assert_eq!(dcf.headers().title, "Track");
        assert_eq!(dcf.headers().rights_issuer_url, "https://ri.example.com");
    }
}
