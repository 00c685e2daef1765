//! The campaign server's `server.manifest` line codec: one
//! `campaign <name> <subject> <priority> <budget|-> <phase>` line per
//! campaign the service accepted, with everything needed to resubmit it
//! after a restart. Lines decode through [`Fields`], so only the exact
//! text [`ManifestEntry::encode`] writes decodes; `-` is the only
//! spelling of "no mutant budget".

use concat::runtime::Fields;

/// One `server.manifest` line.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    pub name: String,
    pub subject: String,
    pub priority: u8,
    pub budget: Option<u64>,
    pub phase: String,
}

impl ManifestEntry {
    /// The manifest line, without its newline.
    pub fn encode(&self) -> String {
        let budget = self
            .budget
            .map_or_else(|| "-".to_owned(), |b| b.to_string());
        format!(
            "campaign {} {} {} {budget} {}",
            self.name, self.subject, self.priority, self.phase
        )
    }

    /// Decodes one manifest line; `None` for anything [`Self::encode`]
    /// would not write.
    pub fn decode(line: &str) -> Option<Self> {
        let mut fields = Fields::new(line, ' ');
        fields.expect("campaign")?;
        let name = fields.word()?.to_owned();
        let subject = fields.word()?.to_owned();
        let priority = fields.dec()?;
        let budget = match fields.word()? {
            "-" => None,
            digits => Some(Fields::new(digits, ' ').dec()?),
        };
        let phase = fields.word()?.to_owned();
        fields.end()?;
        Some(ManifestEntry {
            name,
            subject,
            priority,
            budget,
            phase,
        })
    }
}
